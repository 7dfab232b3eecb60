package lib

// Shape is the interface the app calls Area through.
type Shape interface{ Area() float64 }

// Square's Area is reached only through Shape.
type Square struct{ side float64 }

func NewSquare(side float64) *Square { return &Square{side} }

func (q *Square) Area() float64 { return q.side * q.side }

// Perimeter is called from a test only.
func (q *Square) Perimeter() float64 { return 4 * q.side }

// table is initialized in every program that links lib.
var table = initTable()

func initTable() []int { return []int{1} }

func ForAPI() int { return table[0] }

func ForDriver() int { return 2 }

// Tested and its helper are called from a test only.
func Tested() int { return testedHelper() }

func testedHelper() int { return 3 }

// Deleted has no caller left; its helper goes with it.
func Deleted() int { return deletedHelper() }

func deletedHelper() int { return 4 }

const Unused = 5
