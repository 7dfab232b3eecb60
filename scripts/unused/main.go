// unused reports the top-level functions, methods, types, constants and
// variables of a Go module that no program reaches.
//
//	go run ./scripts/unused    # from the module's root
//
// It lists the module's packages with "go list -json ./...", type-checks
// them with go/types (the standard library from source, so nothing beyond
// the toolchain is needed), and walks the uses between top-level
// declarations from these roots:
//
//   - every main function,
//   - the init functions and package-level variables of every package a
//     program links,
//   - the exported API of the module's root package: its exported
//     top-level symbols and the exported methods of the types it declares
//     (an internal type it re-exports by alias does not make its methods
//     roots).
//
// A method of a reachable type also stays live when some interface declares
// its name, or when the standard library calls it implicitly (String,
// Error, ServeHTTP, MarshalJSON, ...): a call through an interface does not
// name the method it lands on.
//
// Each symbol that no program reaches is reported in one of three classes:
//
//	driver-only  reached from the load driver (cmd/itask-load) only
//	tests-only   reached from _test.go files only
//	dead         reached from nothing
//
// with its file:line and its code lines (non-blank, non-comment). Dead and
// tests-only symbols listed in keep.txt beside this file ("symbol | reason"
// a line, a package path keeping the whole package) are counted but not
// printed; driver-only ones are always printed. A symbol is
// named by its package's path inside the module and its name, a method by
// its receiver: internal/tensor.AllClose, internal/quant.(*Model).DetHead.
//
// The report is printed for the GOOS/GOARCH of the environment; code behind
// other build tags is not seen.
package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"os"
	"strings"
)

//go:embed keep.txt
var keepFile string

// driverDir is the load driver's package directory inside the module: what
// only it reaches is driver-only, not dead.
const driverDir = "cmd/itask-load"

func main() {
	keep, err := parseKeep(keepFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "keep.txt:", err)
		os.Exit(2)
	}
	syms, err := Scan(".", driverDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unused:", err)
		os.Exit(1)
	}
	report(os.Stdout, syms, keep)
}

// parseKeep reads "symbol | reason" lines; blank lines and lines starting
// with '#' are skipped. Every entry needs a reason.
func parseKeep(text string) (map[string]string, error) {
	keep := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, "|")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if !ok || name == "" || reason == "" {
			return nil, fmt.Errorf("line %d: want \"symbol | reason\"", n)
		}
		keep[name] = reason
	}
	return keep, sc.Err()
}

// kept reports whether keep lists the symbol or its package.
func kept(keep map[string]string, s Symbol) bool {
	_, ok := keep[s.Name]
	if !ok {
		_, ok = keep[s.Pkg]
	}
	return ok
}

// report prints every unreached symbol keep does not list, class by class,
// and one summary line per class.
func report(w io.Writer, syms []Symbol, keep map[string]string) {
	for _, class := range []Class{Dead, TestsOnly, DriverOnly} {
		var shown, keptN, keptLines, lines int
		for _, s := range syms {
			if s.Class != class {
				continue
			}
			if class != DriverOnly && kept(keep, s) {
				keptN++
				keptLines += s.Lines
				continue
			}
			if shown == 0 {
				fmt.Fprintf(w, "%s:\n", class)
			}
			fmt.Fprintf(w, "  %-56s %s:%d  %d\n", s.Name, s.File, s.Line, s.Lines)
			shown++
			lines += s.Lines
		}
		fmt.Fprintf(w, "%s: %d symbols, %d lines (and %d kept, %d lines)\n",
			class, shown, lines, keptN, keptLines)
	}
}
