// Package forksafety statically enforces the precondition the parallel
// sweeps, the explorer and the sharded server rely on: a simulated
// device's state lives entirely inside the world device.New builds, and
// device.New is the only code that builds one. A package-level mutable
// var in one of the world packages would be shared by every world that
// sweep workers, explorer workers or fleet shards run at once — a data
// race, and a determinism leak the byte-identity gates might only catch
// long after the var landed. This test fails the moment such a var
// appears, pointing at the allowlist below so the author has to argue
// the var is genuinely immutable.
package forksafety

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// worldPackages are the packages, relative to internal/, whose code runs
// inside or builds a running world: the handler, the process and its
// activities, the system server, the loopers and the view trees, and
// everything a world reaches while sweeps, the explorer and fleet shards
// run many at once — the app models, bundles, chaos plans,
// configurations, the cost model, the builder, the guard, binder, the
// log, the monkey, the oracle and its corpus, resources, the
// RuntimeDroid handler, the scheduler and the tracer.
var worldPackages = []string{
	"core",
	"app",
	"atms",
	"looper",
	"view",
	// serve holds worlds resident across requests: a package-level var
	// here would be shared between every device on every shard.
	"serve",
	"appset",
	"benchapp",
	"bundle",
	"chaos",
	"config",
	"costmodel",
	"device",
	"guard",
	"ipc",
	"logcat",
	"monkey",
	"oracle",
	"oracle/corpus",
	"resources",
	"runtimedroid",
	"sim",
	"trace",
}

// allowlist names the package-level vars audited as immutable after
// initialization. Key is "package/file.go:varname", the package as
// listed in worldPackages. Adding to this list
// requires the same audit: the var must never be written after init,
// and its reachable object graph must never be mutated by a running
// world. A read-only lookup table qualifies; a counter, cache, pool, or
// registry does not.
var allowlist = map[string]bool{
	// Static lifecycle-transition table; built once, only ever read.
	"app/lifecycle.go:validTransitions": true,
	// Sentinel error value compared with errors.Is; never written after
	// init and carries no mutable state.
	"serve/serve.go:errForcedAbort": true,
	// Sentinel crash cause compared with errors.Is; never written.
	"chaos/chaos.go:ErrKilled": true,
	// Prefix list Droppable only ranges over; never written.
	"chaos/chaos.go:droppablePrefixes": true,
	// Bit-to-name table Change.String only ranges over; never written.
	"config/config.go:changeNames": true,
	// Per-kind name/metric table every guard decision only reads.
	"guard/guard.go:kinds": true,
	// Transaction-name table NewEndpoint copies into each endpoint's
	// own message names; never written.
	"ipc/ipc.go:txnNames": true,
	// List content every inflated oracle ListView shares: a list widget
	// keeps the slice it is built with and never writes into it
	// (SetItems installs a copy).
	"oracle/scenario.go:listItems":               true,
	"oracle/corpus/scenarios.go:editorListItems": true,
	// Lookup tables a step's N or a generator's draw indexes; never
	// written.
	"oracle/scenario.go:resizeTable": true,
	"oracle/scenario.go:localeTable": true,
	"oracle/scenario.go:fontTable":   true,
	// Every generated scenario's StockMayLose, which the judge only
	// reads (Scenario.MayLose).
	"oracle/scenario.go:allBuckets": true,
	// Step-kind names and the message names built from them in the
	// var's own initializer; both only read after package init.
	"oracle/step.go:stepKindNames": true,
	"oracle/step.go:stepMessages":  true,
	// The zero qualifier set, passed by value; never assigned.
	"resources/resources.go:AnyConfig": true,
}

// TestNoPackageLevelMutableState parses every world package and
// fails on package-level var declarations (and init funcs, which exist
// only to mutate package state) that are not allowlisted.
func TestNoPackageLevelMutableState(t *testing.T) {
	for _, pkg := range worldPackages {
		dir := filepath.Join("..", filepath.FromSlash(pkg))
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			// Only shipped code runs inside the worlds that sweeps and
			// shards build concurrently.
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, p := range pkgs {
			for filename, file := range p.Files {
				base := filepath.Base(filename)
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.GenDecl:
						if d.Tok != token.VAR {
							continue
						}
						for _, spec := range d.Specs {
							vs := spec.(*ast.ValueSpec)
							for _, name := range vs.Names {
								if name.Name == "_" {
									continue
								}
								key := pkg + "/" + base + ":" + name.Name
								if !allowlist[key] {
									t.Errorf("%s: package-level var %q is not on the fork-safety allowlist.\n"+
										"Every world a sweep, the explorer or a fleet shard runs shares package state;\n"+
										"a mutable var here leaks between concurrent worlds. Move the state into a\n"+
										"struct the world owns, or — if it is truly immutable after init — add %q\n"+
										"to the allowlist in internal/forksafety with an audit comment.",
										fset.Position(name.Pos()), key, key)
								}
							}
						}
					case *ast.FuncDecl:
						if d.Name.Name == "init" && d.Recv == nil {
							t.Errorf("%s: func init() in world package %s.\n"+
								"init funcs exist to mutate package-level state, which concurrent worlds share.\n"+
								"Initialize through the device.Spec path instead.",
								fset.Position(d.Pos()), pkg)
						}
					}
				}
			}
		}
	}
}

// worldBuilders maps each package that builds part of a world to the
// constructor only device.New may call.
var worldBuilders = map[string]string{
	"rchdroid/internal/sim":  "NewScheduler",
	"rchdroid/internal/atms": "New",
	"rchdroid/internal/app":  "NewProcess",
}

// TestWorldsComeFromDeviceNew parses every non-test Go file of the
// module and fails on a call to a world constructor outside
// internal/device. A world assembled by hand skips the one post-settle
// arming point every runner shares.
func TestWorldsComeFromDeviceNew(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, top := range []string{"cmd", "examples", "internal", "scripts"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(file string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if file == filepath.Join(root, "internal", "device") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				return err
			}
			builders := map[string]string{} // import name → constructor
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if fn, ok := worldBuilders[p]; ok {
					name := path.Base(p)
					if imp.Name != nil {
						name = imp.Name.Name
					}
					builders[name] = fn
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && builders[x.Name] == sel.Sel.Name {
						t.Errorf("%s: %s.%s builds a world by hand; build it with device.New (World.Launch for a later process)",
							fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
