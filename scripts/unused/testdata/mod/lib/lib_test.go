package lib

import "testing"

func TestLib(t *testing.T) {
	if Tested() != 3 || (&Square{1}).Perimeter() != 4 {
		t.Fatal("wrong")
	}
}
