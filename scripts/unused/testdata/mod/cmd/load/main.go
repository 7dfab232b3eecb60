// The load driver: what only it reaches is driver-only.
package main

import "example.com/m/lib"

func main() { println(lib.ForDriver()) }
