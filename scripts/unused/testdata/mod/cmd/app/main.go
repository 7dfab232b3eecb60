package main

import "example.com/m/lib"

func main() {
	var s lib.Shape = lib.NewSquare(2)
	println(s.Area())
}
