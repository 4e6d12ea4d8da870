package repro

// Exported functions and methods that only tests call are API nobody
// uses: they cost review and upkeep, and they hide which code the
// program runs. This test type-checks every non-test .go file of the
// module and of bench/, read-only, and fails naming each exported
// function or method that no non-test code references.
//
// A method counts as referenced when non-test code calls it directly,
// or calls a method of the same name through an interface the method's
// type implements. The standard library calls some methods itself
// (fmt calls String, encoding/json calls MarshalJSON); those names are
// exempt, as are two files of test bodies kept outside test files. API
// kept on purpose goes in keptExportedAPI, with its reason.

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// stdCalledMethods are method names the standard library calls through
// its own interfaces (fmt, errors, encoding, io, sort, container/heap,
// net/http), so no call site in this module names them.
var stdCalledMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true,
}

// exportedAPIExemptFiles hold exported functions whose only callers are
// tests by design.
var exportedAPIExemptFiles = map[string]string{
	"internal/benchkit/tracked.go":   "tracked benchmark bodies, each wrapped by the repo-root bench_test.go",
	"internal/experiments/golden.go": "golden corpus renderers, run by golden_test.go",
}

// keptExportedAPI is exported API kept on purpose although no non-test
// code references it, keyed as the test names it, with the reason.
var keptExportedAPI = map[string]string{
	"repro/internal/core.Machine.RunAll":           "README's Public API block shows it",
	"repro/internal/core.Machine.RunScenarioNamed": "README's Public API block shows it",
	"repro/internal/faultline.Injector.Events": "the record of what a seeded fault plan injected: " +
		"the chaos tests of resultstore and session read it from outside the package",
	"repro/internal/stats.Histogram.Min": "bench/'s own tests call it",
	"repro/internal/traffic.Encode": "writes the canonical traffic/ preset file form, " +
		"which the repo-root traffic_test.go and nvmload's tests pin the shipped files to",
}

type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goList lists the packages that ./... of the module in dir depends on,
// dependencies first, with the compiler's export data of each.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func TestNoTestOnlyExportedAPI(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	var modPkgs []listedPackage
	seen := map[string]bool{}
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		for _, p := range goList(t, dir) {
			switch {
			case p.Standard:
				exports[p.ImportPath] = p.Export
			case !seen[p.ImportPath]:
				seen[p.ImportPath] = true
				modPkgs = append(modPkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}

	var declared []*ast.Ident // exported func and method names, outside the exempt files
	for _, p := range modPkgs {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			if _, ok := exportedAPIExemptFiles[filepath.ToSlash(filepath.Join(rel, name))]; ok {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					declared = append(declared, fd.Name)
				}
			}
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
	}
	if len(declared) == 0 {
		t.Fatal("found no exported declarations")
	}

	used := map[*types.Func]bool{}
	viaInterface := map[string][]*types.Interface{} // method name -> interfaces it is called through
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Signature().Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				viaInterface[fn.Name()] = append(viaInterface[fn.Name()], iface)
			}
		}
	}
	referenced := func(fn *types.Func) bool {
		if used[fn] {
			return true
		}
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		for _, iface := range viaInterface[fn.Name()] {
			if hasMethodNames(recv.Type(), iface) {
				return true
			}
		}
		return false
	}

	var dead []string
	kept := map[string]bool{} // keptExportedAPI entries still unreferenced
	for _, id := range declared {
		fn := info.Defs[id].(*types.Func)
		if fn.Signature().Recv() != nil && stdCalledMethods[fn.Name()] || referenced(fn) {
			continue
		}
		name := apiName(fn)
		if _, ok := keptExportedAPI[name]; ok {
			kept[name] = true
			continue
		}
		dead = append(dead, fset.Position(id.Pos()).String()+": "+name)
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("exported but referenced by no non-test code: %s", s)
	}
	for name := range keptExportedAPI {
		if !kept[name] {
			t.Errorf("keptExportedAPI lists %s, which is gone or now has a non-test caller", name)
		}
	}
}

// apiName names fn as "import/path.Func" or "import/path.Type.Method".
func apiName(fn *types.Func) string {
	if recv := fn.Signature().Recv(); recv != nil {
		if named, ok := types.Unalias(derefType(recv.Type())).(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// hasMethodNames reports whether a method of receiver type recv could
// be called through iface: the pointer type's method set holds a method
// of each name iface declares. Names alone, because a generic
// constraint's methods mention type parameters that types.Implements
// cannot match.
func hasMethodNames(recv types.Type, iface *types.Interface) bool {
	ms := types.NewMethodSet(types.NewPointer(derefType(recv)))
	for i := 0; i < iface.NumMethods(); i++ {
		if m := iface.Method(i); ms.Lookup(m.Pkg(), m.Name()) == nil {
			return false
		}
	}
	return true
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
