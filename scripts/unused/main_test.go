package main

import (
	"strings"
	"testing"
)

// TestReachability scans the module under testdata/mod and checks every
// symbol's class: a method reached only through an interface is live, a
// function called only from a _test.go file is tests-only, the helper of a
// function nothing calls is dead, and what only the driver reaches is
// driver-only.
func TestReachability(t *testing.T) {
	syms, err := Scan("testdata/mod", "cmd/load")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Class{}
	for _, s := range syms {
		got[s.Name] = s.Class
	}
	want := map[string]Class{
		"lib.(*Square).Perimeter":  TestsOnly,
		"lib.Tested":               TestsOnly,
		"lib.testedHelper":         TestsOnly,
		"lib.Deleted":              Dead,
		"lib.deletedHelper":        Dead,
		"lib.Unused":               Dead,
		"example.com/m.unexported": Dead,
		"lib.ForDriver":            DriverOnly,
	}
	for name, class := range want {
		if c, ok := got[name]; !ok || c != class {
			t.Errorf("%s: class %v (reported %v), want %v", name, c, ok, class)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s reported %v; it is live", name, got[name])
		}
	}
	// Lines are code lines: the doc comment above Perimeter is not counted.
	for _, s := range syms {
		if s.Name == "lib.(*Square).Perimeter" && (s.Lines != 1 || !strings.HasSuffix(s.File, "lib/lib.go")) {
			t.Errorf("Perimeter at %s:%d, %d lines; want lib/lib.go, 1 line", s.File, s.Line, s.Lines)
		}
	}
}

func TestParseKeep(t *testing.T) {
	keep, err := parseKeep("# comment\n\ninternal/chaos | fakes\nx.Y | a reason\n")
	if err != nil || keep["internal/chaos"] != "fakes" || keep["x.Y"] != "a reason" {
		t.Fatalf("parseKeep = %v, %v", keep, err)
	}
	if _, err := parseKeep("x.Y\n"); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
	s := Symbol{Name: "internal/chaos.Wrap", Pkg: "internal/chaos"}
	if !kept(keep, s) || kept(keep, Symbol{Name: "lib.Z", Pkg: "lib"}) {
		t.Fatal("kept: package entries keep their symbols, nothing else")
	}
}
