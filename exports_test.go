package p4guard

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unusedAllow names the declarations under internal/ that nothing outside
// tests runs and that stay anyway, each with the reason.
var unusedAllow = map[string]string{
	"packet.ARP.Unmarshal":                    decoderRef,
	"packet.CoAP.Unmarshal":                   decoderRef,
	"packet.CompressedUDP.Unmarshal":          decoderRef,
	"packet.DNS.Unmarshal":                    decoderRef,
	"packet.ICMP.Unmarshal":                   decoderRef,
	"packet.MQTT.Unmarshal":                   decoderRef,
	"packet.SixLowPANFrag.Unmarshal":          decoderRef,
	"packet.SixLowPANHdr.Unmarshal":           decoderRef,
	"packet.ZigbeeNWK.Unmarshal":              decoderRef,
	"tensor.MatMulSerial":                     serialOracle,
	"tensor.MatMulATBSerial":                  serialOracle,
	"tensor.MatMulABTSerial":                  serialOracle,
	"matchtest.Rows":                          "match and p4 tests draw their random rows from it",
	"matchtest.Pack":                          "the match index tests pack rows into the index's lo‖hi layout with it",
	"matchtest.FirstMatch":                    "the linear first-match reference of the match index tests",
	"rules.ClassifyTernary":                   "the ternary-expansion reference of differential_test.go",
	"rules.RuleSet.Classify":                  "the one-result form of the reference classifier that six packages' tests compare against",
	"p4.Table.Entries":                        "the convergence tests compare switch tables entry by entry through it",
	"telemetry.Journal.Flush":                 "durability: pushes buffered records to the journal file before Close",
	"telemetry.Journal.Records":               "controller, switchsim, telemetry and root tests read the memory tail through it",
	"tensor.Matrix.Clone":                     "nn tests snapshot gradients and activations with it",
	"switchsim.Switch.DisableExplainSampling": "drift_e2e_test explains one probe, then forwards unsampled",
	"p4rt.RejectError.Is":                     "errors.Is calls it through an interface declared inside the standard library's errors.Is",
}

const (
	decoderRef   = "a reference decoder of FuzzInPlaceParserAgreement and FuzzAllCodecs"
	serialOracle = "the serial oracle the blocked kernels are held bit-identical to (TestBlockedKernelsBitIdenticalToSerialOracles)"
)

// TestNoUnusedNames fails on any package-level name or method declared
// under internal/ that no non-test file of this module, and no file of
// perfbench/ (its tests included: only a benchmark change may edit them),
// references, and on any allowlist entry that is used or gone.
func TestNoUnusedNames(t *testing.T) {
	found, err := unusedNames(".", "p4guard", "perfbench", unusedAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestUnusedNamesFindings runs the checker over a miniature module whose
// every name exercises one rule, and holds it to the exact findings.
func TestUnusedNamesFindings(t *testing.T) {
	allow := map[string]string{
		"a.Kept": "kept on purpose",
		"a.Used": "stale: main references it",
		"a.Gone": "stale: nothing declares it",
	}
	found, err := unusedNames("testdata/unused", "unused", "bench", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.Dead",
		"a.Gone: allowlisted, but not declared",
		"a.Square.Side",
		"a.Used: allowlisted, but used",
		"a.dead",
	}
	if !slices.Equal(found, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(found, "\n  "), strings.Join(want, "\n  "))
	}
}

// unusedNames type-checks the module at root (import path module): every
// non-test file, and every file under its bench subdirectory, tests
// included. It returns, sorted, each package-level name or method declared
// under root/internal that none of those files references, outside the
// declaration itself, and that allow does not list; and each allow entry
// that is used or not declared. A method counts as used when its type
// implements an interface that declares it; a constant counts as used when
// another name of its parenthesised block is used. Keys read pkg.Name, or
// pkg.Type.Method for a method.
func unusedNames(root, module, bench string, allow map[string]string) ([]string, error) {
	l := &nameLoader{
		fset:   token.NewFileSet(),
		root:   root,
		module: module,
		bench:  filepath.Join(root, bench),
		pkgs:   map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		decls: map[types.Object]*declared{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		return l.loadDir(dir)
	})
	if err != nil {
		return nil, err
	}

	for id, obj := range l.info.Uses {
		if d := l.decls[origin(obj)]; d != nil && (id.Pos() < d.pos || id.Pos() >= d.end) {
			d.used = true
		}
	}
	for _, d := range l.decls {
		if d.used {
			for _, o := range d.block {
				o.used = true
			}
		}
	}
	byName := l.interfaceMethods()
	var found []string
	keys := map[string]bool{}
	for obj, d := range l.decls {
		keys[d.key] = true
		if !d.used && d.recv != nil {
			d.used = implementsAny(d.recv, byName[obj.Name()])
		}
		_, listed := allow[d.key]
		switch {
		case listed && d.used:
			found = append(found, d.key+": allowlisted, but used")
		case !listed && !d.used:
			found = append(found, d.key)
		}
	}
	for key := range allow {
		if !keys[key] {
			found = append(found, key+": allowlisted, but not declared")
		}
	}
	slices.Sort(found)
	return found, nil
}

// declared is one package-level name or method under internal/.
type declared struct {
	key      string
	pos, end token.Pos    // the declaration: a use inside it does not count
	recv     *types.Named // a method's receiver type; nil for other names
	used     bool
	block    []*declared // the names of its parenthesised const block
}

type nameLoader struct {
	fset         *token.FileSet
	root, module string
	bench        string
	std          types.Importer
	pkgs         map[string]*types.Package
	info         *types.Info
	decls        map[types.Object]*declared
}

// Import resolves the module's own paths to its directories and everything
// else through the source importer.
func (l *nameLoader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.module)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	return l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
}

// loadDir checks the package in dir, if it has one, and its external test
// package when dir is under bench.
func (l *nameLoader) loadDir(dir string) error {
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil
	}
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return err
	}
	path := l.module
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	if _, err := l.load(path, dir); err != nil {
		return err
	}
	if !l.inBench(dir) || len(bp.XTestGoFiles) == 0 {
		return nil
	}
	_, err = l.check(path+"_test", dir, bp.XTestGoFiles)
	return err
}

func (l *nameLoader) inBench(dir string) bool {
	rel, err := filepath.Rel(l.bench, dir)
	return err == nil && !strings.HasPrefix(rel, "..")
}

// load checks the package at path once: its non-test files, and its
// in-package tests under bench.
func (l *nameLoader) load(path, dir string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := bp.GoFiles
	if l.inBench(dir) {
		files = append(files, bp.TestGoFiles...)
	}
	pkg, err := l.check(path, dir, files)
	l.pkgs[path] = pkg
	return pkg, err
}

func (l *nameLoader) check(path, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(path, l.module+"/internal/") {
		for _, f := range files {
			l.declare(pkg, f)
		}
	}
	return pkg, nil
}

// declare records every package-level name and method f declares.
func (l *nameLoader) declare(pkg *types.Package, f *ast.File) {
	add := func(id *ast.Ident, node ast.Node) *declared {
		obj := l.info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" {
			return nil
		}
		d := &declared{key: pkg.Name() + "." + id.Name, pos: node.Pos(), end: node.End()}
		l.decls[obj] = d
		return d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			d := add(decl.Name, decl)
			if d == nil || decl.Recv == nil {
				continue
			}
			recv := l.info.Defs[decl.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			d.recv = recv.(*types.Named)
			d.key = pkg.Name() + "." + d.recv.Obj().Name() + "." + decl.Name.Name
		case *ast.GenDecl:
			var block []*declared
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, spec)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if d := add(id, spec); d != nil {
							block = append(block, d)
						}
					}
				}
			}
			if decl.Tok == token.CONST && decl.Lparen.IsValid() {
				for _, d := range block {
					d.block = block
				}
			}
		}
	}
}

// interfaceMethods indexes, by method name, every interface the checked
// files write out and every interface type any loaded package declares.
func (l *nameLoader) interfaceMethods() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	for _, tv := range l.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg)
	}
	add(types.Universe.Lookup("error").Type())
	return byName
}

// implementsAny reports whether recv, or a pointer to it, implements one
// of ifaces. A generic type never does here.
func implementsAny(recv *types.Named, ifaces []*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// origin maps a use of an instantiated generic function, method or field
// to the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}
