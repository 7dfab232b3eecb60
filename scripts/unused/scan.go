package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Class is why nothing keeps a symbol.
type Class int

const (
	DriverOnly Class = iota // reached from the load driver only
	TestsOnly               // reached from _test.go files only
	Dead                    // reached from nothing
)

func (c Class) String() string {
	return [...]string{"driver-only", "tests-only", "dead"}[c]
}

// Symbol is one top-level declaration of a non-test file.
type Symbol struct {
	Name  string // internal/tensor.AllClose, internal/quant.(*Model).DetHead
	Pkg   string // internal/tensor
	File  string // relative to the module root
	Line  int
	Lines int // code lines: non-blank, non-comment
	Class Class
}

// implicitNames are methods the standard library calls without an
// interface in the caller's code naming them.
var implicitNames = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"ServeHTTP", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"MarshalBinary", "UnmarshalBinary", "Read", "Write", "Close", "Seek",
	"ReadFrom", "WriteTo", "Len", "Less", "Swap", "Push", "Pop", "Timeout",
	"Temporary",
}

// listedPackage is the part of "go list -json" the scan reads.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	Module       *struct{ Path, Dir string }
}

// pkg is one module package, type-checked.
type pkg struct {
	listedPackage
	types *types.Package
	files []*ast.File
	info  *types.Info
	test  *types.Package // with its in-package _test.go files, once checked
}

// node is a top-level declaration: the symbols it defines and the symbols
// its source uses.
type node struct {
	defs []string
	uses []string
}

// scan holds one module's packages and the graph between its declarations.
type scan struct {
	fset    *token.FileSet
	modPath string
	modDir  string
	pkgs    map[string]*pkg
	std     types.Importer

	syms    map[string]*Symbol  // key → non-test top-level symbol
	methods map[string][]string // type key → its methods' keys
	edges   map[string][]string // key → keys its declaration uses
	iface   map[string]bool     // method names some interface declares
	lines   map[string][]bool   // file → which lines hold code
}

// Scan classifies every top-level symbol of the non-test files of the
// module rooted at dir. driver is the load driver's package directory
// relative to dir ("" for none); its own symbols are not returned.
func Scan(dir, driver string) ([]Symbol, error) {
	listed, err := goList(dir)
	if err != nil {
		return nil, err
	}
	if len(listed) == 0 || listed[0].Module == nil {
		return nil, errors.New("no module packages listed")
	}
	build.Default.CgoEnabled = false // the source importer reads std without cgo
	s := &scan{
		fset:    token.NewFileSet(),
		modPath: listed[0].Module.Path,
		modDir:  listed[0].Module.Dir,
		pkgs:    map[string]*pkg{},
		syms:    map[string]*Symbol{},
		methods: map[string][]string{},
		edges:   map[string][]string{},
		iface:   map[string]bool{},
		lines:   map[string][]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	for _, name := range implicitNames {
		s.iface[name] = true
	}
	for _, lp := range listed {
		s.pkgs[lp.ImportPath] = &pkg{listedPackage: lp}
	}
	paths := sortedKeys(s.pkgs)
	for _, path := range paths {
		if _, err := s.check(path); err != nil {
			return nil, err
		}
	}

	driverPath := ""
	if driver != "" {
		driverPath = s.modPath + "/" + filepath.ToSlash(driver)
	}
	program := s.apiRoots()
	var drive, tests []string
	for _, path := range paths {
		p := s.pkgs[path]
		s.declare(p.files, p.info, path, false)
		switch {
		case path == driverPath:
			drive = append(drive, path+".main")
		case p.Name == "main":
			program = append(program, path+".main")
		}
	}
	// Package initialization runs only in the packages a program links.
	for _, path := range s.closure(s.mains(driverPath, false)) {
		program = append(program, s.initRoots(path)...)
	}
	for _, path := range s.closure(s.mains(driverPath, true)) {
		drive = append(drive, s.initRoots(path)...)
	}
	for _, path := range paths {
		tests = append(tests, s.initRoots(path)...)
		r, err := s.checkTests(s.pkgs[path])
		if err != nil {
			return nil, err
		}
		tests = append(tests, r...)
	}

	live, driven, tested := s.walk(program), s.walk(drive), s.walk(tests)
	var out []Symbol
	for _, key := range sortedKeys(s.syms) {
		sym := s.syms[key]
		switch {
		case live[key]:
			continue
		case driven[key]:
			if driverPath != "" && strings.HasPrefix(key, driverPath+".") {
				continue
			}
			sym.Class = DriverOnly
		case tested[key]:
			sym.Class = TestsOnly
		default:
			sym.Class = Dead
		}
		out = append(out, *sym)
	}
	return out, nil
}

func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// Import gives module packages as the scan checked them and the rest from
// the standard library's source.
func (s *scan) Import(path string) (*types.Package, error) {
	if _, ok := s.pkgs[path]; ok {
		return s.check(path)
	}
	return s.std.Import(path)
}

// check type-checks a module package's non-test files, its module imports
// first.
func (s *scan) check(path string) (*types.Package, error) {
	p := s.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	files, err := s.parse(p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: s}
	tp, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	p.types, p.files, p.info = tp, files, info
	s.collectIfaces(info)
	return tp, nil
}

// checkTests type-checks a package's _test.go files, in-package ones
// beside its own files and external ones as their own package, and adds
// their declarations to the graph. Every one of them is a test root.
// Type errors are tolerated: an external test sees the test variant of its
// package where the packages it imports see the plain one.
func (s *scan) checkTests(p *pkg) ([]string, error) {
	var roots []string
	conf := types.Config{Importer: s, Error: func(error) {}}
	if len(p.TestGoFiles) > 0 {
		files, err := s.parse(p.Dir, append(slices.Clone(p.GoFiles), p.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		info := newInfo()
		p.test, _ = conf.Check(p.ImportPath, s.fset, files, info)
		roots = append(roots, s.declare(files[len(p.GoFiles):], info, p.ImportPath, true)...)
	}
	if len(p.XTestGoFiles) > 0 {
		files, err := s.parse(p.Dir, p.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		xconf := conf
		xconf.Importer = importerFunc(func(path string) (*types.Package, error) {
			if path == p.ImportPath && p.test != nil {
				return p.test, nil
			}
			return s.Import(path)
		})
		info := newInfo()
		xconf.Check(p.ImportPath+"_test", s.fset, files, info)
		roots = append(roots, s.declare(files, info, p.ImportPath+"_test", true)...)
	}
	return roots, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

func (s *scan) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// declare adds the top-level declarations of files to the graph. Those of
// test files are returned, each a test root; the others become symbols.
func (s *scan) declare(files []*ast.File, info *types.Info, path string, test bool) []string {
	var roots []string
	for _, f := range files {
		for _, decl := range f.Decls {
			for _, n := range s.nodes(decl, info, path) {
				for _, def := range n.defs {
					s.edges[def] = append(s.edges[def], n.uses...)
				}
				if test {
					roots = append(roots, n.defs...)
				}
			}
			if test {
				continue
			}
			for _, sym := range s.symbols(decl, info, path) {
				s.syms[sym.key] = &sym.Symbol
				if sym.recv != "" {
					s.methods[sym.recv] = append(s.methods[sym.recv], sym.key)
				}
			}
		}
	}
	return roots
}

// apiRoots are the exported symbols of the module's root package and the
// exported methods of the types it declares. An internal type the root
// package re-exports through an alias (type Image = tensor.Tensor) does not
// make its methods roots: the root package's API is what it declares.
func (s *scan) apiRoots() []string {
	root, ok := s.pkgs[s.modPath]
	if !ok {
		return nil
	}
	var roots []string
	scope := root.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		roots = append(roots, s.key(obj))
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						roots = append(roots, s.key(m))
					}
				}
			}
		}
	}
	return roots
}

// initRoots are the package-level variables and init functions of a
// module package: whatever links the package runs them.
func (s *scan) initRoots(path string) []string {
	var roots []string
	p := s.pkgs[path]
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					roots = append(roots, initKey(s.fset, path, d))
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					for _, n := range s.nodes(d, p.info, path) {
						roots = append(roots, n.defs...)
					}
				}
			}
		}
	}
	return roots
}

// mains are the program packages: every main package and the module's
// root package, or with driver only the driver's package.
func (s *scan) mains(driverPath string, driver bool) []string {
	var out []string
	for path, p := range s.pkgs {
		isDriver := path == driverPath
		if driver == isDriver && (isDriver || p.Name == "main" || path == s.modPath) {
			out = append(out, path)
		}
	}
	return out
}

// closure is paths and every module package they import, transitively.
func (s *scan) closure(paths []string) []string {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(path string) {
		p, ok := s.pkgs[path]
		if !ok || seen[path] {
			return
		}
		seen[path] = true
		for _, imp := range p.Imports {
			visit(imp)
		}
	}
	for _, path := range paths {
		visit(path)
	}
	return sortedKeys(seen)
}

func initKey(fset *token.FileSet, path string, d *ast.FuncDecl) string {
	pos := fset.Position(d.Pos())
	return fmt.Sprintf("%s.init@%s:%d", path, filepath.Base(pos.Filename), pos.Line)
}

// nodes splits a top-level declaration into graph nodes: a function, or
// one node per spec of a general declaration.
func (s *scan) nodes(decl ast.Decl, info *types.Info, path string) []node {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		var def string
		if d.Recv == nil && d.Name.Name == "init" {
			def = initKey(s.fset, path, d)
		} else {
			def = s.key(info.Defs[d.Name])
		}
		n := node{defs: []string{def}, uses: s.uses(d, info)}
		if d.Recv != nil {
			if recv := recvKey(info.Defs[d.Name]); recv != "" {
				n.uses = append(n.uses, recv)
			}
		}
		return []node{n}
	case *ast.GenDecl:
		var out []node
		for _, spec := range d.Specs {
			var n node
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				n.defs = []string{s.key(info.Defs[sp.Name])}
			case *ast.ValueSpec:
				for _, name := range sp.Names {
					if name.Name != "_" {
						n.defs = append(n.defs, s.key(info.Defs[name]))
					} else {
						// var _ Iface = (*T)(nil) and the like: the
						// assertion is a use by its package.
						n.defs = append(n.defs, path+"._@"+s.fset.Position(name.Pos()).String())
					}
				}
			default:
				continue
			}
			n.uses = s.uses(spec, info)
			out = append(out, n)
		}
		return out
	}
	return nil
}

// uses are the module symbols an AST node refers to.
func (s *scan) uses(root ast.Node, info *types.Info) []string {
	var out []string
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := s.key(info.Uses[id]); k != "" {
				out = append(out, k)
			}
		}
		return true
	})
	return out
}

// key names a module package's top-level object or method: path.Name or
// path.Type.Method. Anything else is "".
func (s *scan) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if _, ok := s.pkgs[strings.TrimSuffix(path, "_test")]; !ok {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := recvKey(o); recv != "" {
			return recv + "." + o.Name()
		}
		if o.Type().(*types.Signature).Recv() != nil {
			return "" // an interface's method
		}
	case *types.Var:
		if o.Origin().IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// recvKey is the key of a concrete method's receiver type, "" for anything
// else.
func recvKey(obj types.Object) string {
	f, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	tn := named.Origin().Obj()
	return tn.Pkg().Path() + "." + tn.Name()
}

// symbol is a Symbol with its graph key and, for a method, its receiver
// type's key.
type symbol struct {
	Symbol
	key, recv string
}

// symbols are the reportable symbols a non-test declaration defines.
func (s *scan) symbols(decl ast.Decl, info *types.Info, path string) []symbol {
	rel := path
	if strings.HasPrefix(path, s.modPath+"/") {
		rel = strings.TrimPrefix(path, s.modPath+"/")
	}
	mk := func(name string, obj types.Object, from, to token.Pos) symbol {
		pos := s.fset.Position(from)
		file, _ := filepath.Rel(s.modDir, pos.Filename)
		return symbol{
			Symbol: Symbol{
				Name: rel + "." + name, Pkg: rel, File: filepath.ToSlash(file),
				Line: pos.Line, Lines: s.codeLines(pos.Filename, pos.Line, s.fset.Position(to).Line),
			},
			key:  s.key(obj),
			recv: recvKey(obj),
		}
	}
	var out []symbol
	switch d := decl.(type) {
	case *ast.FuncDecl:
		obj := info.Defs[d.Name]
		name := d.Name.Name
		if d.Recv == nil && (name == "init" || name == "_") {
			return nil
		}
		if d.Recv != nil && len(d.Recv.List) == 1 {
			name = "(" + recvString(d.Recv.List[0].Type) + ")." + name
		}
		out = append(out, mk(name, obj, d.Pos(), d.End()))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			from, to := spec.Pos(), spec.End()
			if !d.Lparen.IsValid() {
				from, to = d.Pos(), d.End()
			}
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, mk(sp.Name.Name, info.Defs[sp.Name], from, to))
			case *ast.ValueSpec:
				for _, name := range sp.Names {
					if name.Name != "_" {
						out = append(out, mk(name.Name, info.Defs[name], from, to))
					}
				}
			}
		}
	}
	return out
}

// recvString writes a receiver type as (*T) or (T), type parameters
// dropped.
func recvString(x ast.Expr) string {
	star := ""
	if st, ok := x.(*ast.StarExpr); ok {
		star, x = "*", st.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return star + id.Name
	}
	return star + "?"
}

// collectIfaces adds the method names of every interface type a package's
// code mentions: its own, and those in the signatures of what it calls.
func (s *scan) collectIfaces(info *types.Info) {
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				visit(it)
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				s.iface[t.Method(i).Name()] = true
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					visit(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type())
			}
		}
	}
	for _, tv := range info.Types {
		visit(tv.Type)
	}
	for _, obj := range info.Defs {
		if obj != nil {
			visit(obj.Type())
		}
	}
	for _, obj := range info.Uses {
		visit(obj.Type())
	}
}

// walk marks every key reachable from roots. A reachable type brings along
// its methods whose names an interface declares.
func (s *scan) walk(roots []string) map[string]bool {
	seen := map[string]bool{}
	stack := slices.Clone(roots)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		stack = append(stack, s.edges[k]...)
		for _, m := range s.methods[k] {
			if s.iface[m[strings.LastIndex(m, ".")+1:]] {
				stack = append(stack, m)
			}
		}
	}
	return seen
}

// codeLines counts the lines from..to of a file that hold a token other
// than a comment.
func (s *scan) codeLines(filename string, from, to int) int {
	marks, ok := s.lines[filename]
	if !ok {
		marks = markCode(filename)
		s.lines[filename] = marks
	}
	n := 0
	for l := from; l <= to && l < len(marks); l++ {
		if marks[l] {
			n++
		}
	}
	return n
}

// markCode reports, by line number, which lines of a file hold code.
func markCode(filename string) []bool {
	src, err := os.ReadFile(filename)
	if err != nil {
		return nil
	}
	fset := token.NewFileSet()
	file := fset.AddFile(filename, -1, len(src))
	var sc scanner.Scanner
	sc.Init(file, src, nil, 0)
	marks := make([]bool, bytes.Count(src, []byte("\n"))+2)
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			return marks
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line's end, nothing of its own
		}
		first := fset.Position(pos).Line
		last := first + strings.Count(lit, "\n")
		for l := first; l <= last && l < len(marks); l++ {
			marks[l] = true
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
