package prudentia

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// optionStructs are the library's option structs: their exported fields
// are the configuration surface ROADMAP item 5 counts.
var optionStructs = []string{
	"core.SchedulerOptions", "core.AdaptiveOptions", "core.Spec", "core.Watchdog",
	"core.BreakerSet",
	"chaos.Config", "chaos.Brownout", "chaos.DiskPlan",
	"netem.Config", "netem.NoiseConfig",
	"serve.Config",
	"cca.BBRVariant", "cca.Config", "cca.GCCConfig",
	"transport.Options",
	"services.Video", "services.RTC", "services.Mega", "services.FileTransfer",
	"services.WebPage", "services.IPerf",
}

// maxOptionFields is the committed count of exported fields across
// optionStructs. It may only go down, except when a struct joins the list.
const maxOptionFields = 120

// deadSurfaceAllowlist pins every finding that has a reason to stay.
const deadSurfaceAllowlist = "testdata/deadsurface.txt"

// allowReasons is the closed set of reasons an allowlist line may give.
var allowReasons = map[string]bool{
	"harness":   true, // the package exists for tests
	"reference": true, // a test compares production code against it
	"seam":      true, // a test needs a different value than production
	"error":     true, // a sentinel that non-test code returns
	"bench":     true, // only bench/ sets it
	"roadmap":   true, // a named ROADMAP item decides; followed by its number
}

// TestDeadSurface gates the surface of internal/: an exported identifier
// no non-test code references, an option field no non-test code assigns,
// an option field every non-test assignment gives the same constant, and
// a struct field non-test code writes and never reads must each be
// deleted or listed in the allowlist with a reason. A listed entry that
// is no longer flagged fails too, so the allowlist only shrinks.
func TestDeadSurface(t *testing.T) {
	rep, err := checkSurface(".", optionStructs)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(deadSurfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	var unlisted []string
	flagged := make(map[string]bool, len(rep.findings))
	for _, f := range rep.findings {
		flagged[f.key] = true
		if !allow[f.key] {
			unlisted = append(unlisted, f.String())
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("%d findings are not in %s (delete them, or list them with a reason):\n%s",
			len(unlisted), deadSurfaceAllowlist, strings.Join(unlisted, "\n"))
	}
	var stale []string
	for key := range allow {
		if !flagged[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("%s lists entries the checker no longer flags (remove the lines):\n%s",
			deadSurfaceAllowlist, strings.Join(stale, "\n"))
	}
	t.Logf("%d findings, %d allowlisted; %d option fields (at most %d)",
		len(rep.findings), len(allow), rep.optionFields, maxOptionFields)
	if rep.optionFields > maxOptionFields {
		t.Errorf("option structs carry %d exported fields, more than the committed %d",
			rep.optionFields, maxOptionFields)
	}
}

// TestDeadSurfaceFixture runs the checker on a small module with one case
// per rule, so that a false negative and a false positive both fail.
func TestDeadSurfaceFixture(t *testing.T) {
	rep, err := checkSurface("testdata/deadsurface", []string{"opts.Options", "opts.Tuning"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.findings {
		got = append(got, f.String())
	}
	want := []string{
		"internal/lib/fields.go:14 lib.Conn.Last write-only",
		"internal/lib/fields.go:10 lib.Conn.opened write-only",
		"internal/lib/fields.go:12 lib.Conn.sends write-only",
		"internal/lib/lib.go:9 lib.Dead dead",
		"internal/lib/fields.go:69 lib.Header.Echo write-only",
		"internal/lib/lib.go:19 lib.Named.Unused dead",
		"internal/lib/embed.go:19 lib.base.Extra dead",
		"internal/opts/opts.go:13 opts.Options.Codes one value",
		"internal/opts/opts.go:11 opts.Options.Mode one value",
		"internal/opts/opts.go:9 opts.Options.Seam unassigned",
		"internal/opts/opts.go:25 opts.Tuning.Workers one value",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if rep.optionFields != 7 {
		t.Errorf("option fields = %d, want 7", rep.optionFields)
	}
}

// readAllowlist parses lines of the form "pkg.Symbol reason why…", where
// reason is one of allowReasons and "roadmap" is followed by an item
// number. Blank lines and lines starting with # are skipped.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		why := 2
		if len(fields) > 2 && fields[1] == "roadmap" {
			if _, err := fmt.Sscanf(fields[2], "%d", new(int)); err != nil {
				return nil, fmt.Errorf("%s:%d: roadmap reason needs an item number", path, n)
			}
			why = 3
		}
		if len(fields) <= why || !allowReasons[fields[1]] {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Symbol <reason> <why>\" with a reason from the closed set, got %q", path, n, line)
		}
		if allow[fields[0]] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, fields[0])
		}
		allow[fields[0]] = true
	}
	return allow, sc.Err()
}

type surfaceFinding struct {
	pos  token.Position // file relative to the module root
	key  string         // pkg.Symbol, pkg.Type.Method or pkg.Type.Field
	rule string         // "dead", "unassigned", "one value" or "write-only"
}

func (f surfaceFinding) String() string {
	return fmt.Sprintf("%s:%d %s %s", f.pos.Filename, f.pos.Line, f.key, f.rule)
}

type surfaceReport struct {
	findings     []surfaceFinding // sorted by key
	optionFields int
}

// checkSurface type-checks every non-test package of the module rooted
// at root and applies the four rules. options names the option structs
// as "pkg.Type", pkg being the package name.
func checkSurface(root string, options []string) (surfaceReport, error) {
	l, err := newSurfaceLoader(root)
	if err != nil {
		return surfaceReport{}, err
	}
	if err := l.loadAll(); err != nil {
		return surfaceReport{}, err
	}
	var rep surfaceReport
	add := func(obj types.Object, key, rule string) {
		pos := l.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(l.root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		rep.findings = append(rep.findings, surfaceFinding{pos: pos, key: key, rule: rule})
	}

	// Rule A: exported identifiers of internal/ that no non-test code uses
	// and, for methods, that satisfy no interface the program can see,
	// neither on their own type nor on a type that embeds it.
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[originOf(obj)] = true
		}
	}
	ifaces := l.interfacesByMethod()
	promoters := l.promotingTypes()
	satisfies := func(named *types.Named, m *types.Func) bool {
		for _, t := range append([]*types.Named{named}, promoters[m]...) {
			for _, iface := range ifaces[m.Name()] {
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					return true
				}
			}
		}
		return false
	}
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				add(obj, p.types.Name()+"."+name, "dead")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, m) {
					add(m, p.types.Name()+"."+name+"."+m.Name(), "dead")
				}
			}
		}
	}

	// Rules B and C: exported option fields no non-test code assigns, and
	// those every non-test assignment gives one constant. Rule C also
	// counts the zero a struct literal, var declaration or new(T) leaves
	// in the field, unless the field's own package defaults that zero.
	fieldKey := map[*types.Var]string{}
	var fieldOrder []*types.Var
	for _, opt := range options {
		pkgName, typeName, _ := strings.Cut(opt, ".")
		st, err := l.lookupStruct(pkgName, typeName)
		if err != nil {
			return surfaceReport{}, err
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fieldKey[f] = opt + "." + f.Name()
				fieldOrder = append(fieldOrder, f)
			}
		}
	}
	rep.optionFields = len(fieldOrder)
	writes, reads, zeros, defaulted := l.fieldUses()
	for _, f := range fieldOrder {
		values := writes[f]
		if !defaulted[f] {
			values = slices.Concat(values, zeros[f])
		}
		switch {
		case len(writes[f]) == 0:
			add(f, fieldKey[f], "unassigned")
		case values[0] != "" && allEqual(values):
			add(f, fieldKey[f], "one value")
		}
	}

	// Rule D: fields of internal/ struct types that non-test code writes
	// and never reads, unless a struct tag or an encoding/json call reads
	// them by reflection.
	viaJSON := l.jsonReachableFields()
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Pkg() == p.types && len(writes[f]) > 0 && !reads[f] && st.Tag(i) == "" && !viaJSON[f] {
					add(f, p.types.Name()+"."+name+"."+f.Name(), "write-only")
				}
			}
		}
	}
	sort.Slice(rep.findings, func(i, j int) bool { return rep.findings[i].key < rep.findings[j].key })
	return rep, nil
}

func allEqual(values []string) bool {
	for _, v := range values[1:] {
		if v != values[0] {
			return false
		}
	}
	return true
}

// originOf maps an instantiated generic member back to its declaration.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type surfacePkg struct {
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// surfaceLoader type-checks the module's non-test files from source, and
// the standard library through the source importer.
type surfaceLoader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	pkgs   map[string]*surfacePkg // by import path
}

func newSurfaceLoader(root string) (*surfaceLoader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	// The standard library's cgo files would need a C toolchain to
	// type-check; their pure-Go twins declare the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &surfaceLoader{
		fset:   fset,
		root:   filepath.Clean(root),
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*surfacePkg{},
	}, nil
}

// loadAll loads every package directory of the module, skipping
// testdata, hidden directories and nested modules.
func (l *surfaceLoader) loadAll() error {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != l.root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		names, err := l.sourceFiles(path)
		if err != nil || len(names) == 0 {
			return err
		}
		rel, _ := filepath.Rel(l.root, path)
		if rel == "." {
			paths = append(paths, l.module)
		} else {
			paths = append(paths, l.module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return err
		}
	}
	return nil
}

// sourceFiles lists the non-test Go files of dir that this platform builds.
func (l *surfaceLoader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *surfaceLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *surfaceLoader) load(path string) (*surfacePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{rel: rel, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// interfacesByMethod indexes, by method name, every interface the
// program can satisfy: the named interfaces of the module and of the
// standard packages it imports, error, and every interface type the
// module's code mentions (such as an anonymous one in a type assertion).
func (l *surfaceLoader) interfacesByMethod() map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	byName := map[string][]*types.Interface{}
	addType := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addType(tn.Type())
			}
		}
	}
	addType(types.Universe.Lookup("error").Type())
	for _, p := range l.pkgs {
		addScope(p.types)
		for _, imp := range p.types.Imports() {
			addScope(imp)
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addType(tv.Type)
			}
		}
	}
	return byName
}

// promotingTypes maps each method that embedding promotes to the named
// types of the module it is promoted into: a method of an embedded type
// satisfies an interface through the type that embeds it.
func (l *surfaceLoader) promotingTypes() map[*types.Func][]*types.Named {
	promoters := map[*types.Func][]*types.Named{}
	for _, p := range l.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				if sel := ms.At(i); len(sel.Index()) > 1 {
					m := sel.Obj().(*types.Func).Origin()
					promoters[m] = append(promoters[m], named)
				}
			}
		}
	}
	return promoters
}

func (l *surfaceLoader) lookupStruct(pkgName, typeName string) (*types.Struct, error) {
	for _, p := range l.pkgs {
		if p.types.Name() != pkgName || !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		if tn, ok := p.types.Scope().Lookup(typeName).(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				return st, nil
			}
		}
	}
	return nil, fmt.Errorf("option struct %s.%s not found", pkgName, typeName)
}

// fieldUses sorts every non-test use of a struct field. writes holds one
// entry per composite-literal element, assignment or inc/dec target, or
// address taken with &: the exact constant assigned (a composite literal
// whose elements are all constants counts as one), or "" when the value
// is not a constant. zeros holds one entry per struct literal that leaves
// the field out, per var declaration without a value and per new(T): the
// zero value it gets. defaulted holds the fields their own package tests
// in an if and assigns in its body, so that their zero means a default.
// reads holds every field used in any other way (&x.F and a call through
// the field included) but the right side of a copy x.F = y.F, and each
// embedded field that a promoted selection passes through.
func (l *surfaceLoader) fieldUses() (writes map[*types.Var][]string, reads map[*types.Var]bool, zeros map[*types.Var][]string, defaulted map[*types.Var]bool) {
	writes, reads = map[*types.Var][]string{}, map[*types.Var]bool{}
	zeros, defaulted = map[*types.Var][]string{}, map[*types.Var]bool{}
	for _, p := range l.pkgs {
		info := p.info
		var value func(e ast.Expr) string
		value = func(e ast.Expr) string {
			if e == nil {
				return ""
			}
			tv := info.Types[e]
			switch {
			case tv.Value != nil:
				return tv.Value.ExactString()
			case tv.IsNil():
				return "nil"
			}
			lit, ok := ast.Unparen(e).(*ast.CompositeLit)
			if !ok || tv.Type == nil {
				return ""
			}
			elts := make([]string, len(lit.Elts))
			for i, elt := range lit.Elts {
				kv, keyed := elt.(*ast.KeyValueExpr)
				if keyed {
					elt = kv.Value
				}
				v := value(elt)
				if v == "" {
					return ""
				}
				if keyed {
					k := value(kv.Key)
					if id, ok := kv.Key.(*ast.Ident); ok {
						if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
							k = id.Name
						}
					}
					if k == "" {
						return ""
					}
					v = k + ":" + v
				}
				elts[i] = v
			}
			return types.TypeString(tv.Type, nil) + "{" + strings.Join(elts, ", ") + "}"
		}
		write := func(f *types.Var, e ast.Expr) {
			writes[f.Origin()] = append(writes[f.Origin()], value(e))
		}
		// zero records the zero value of every field of st that set
		// does not name.
		zero := func(st *types.Struct, set map[*types.Var]bool) {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i).Origin(); !set[f] {
					zeros[f] = append(zeros[f], zeroValue(f.Type()))
				}
			}
		}
		// field returns the field e selects, or nil.
		field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return nil, nil
			}
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return sel, s.Obj().(*types.Var).Origin()
			}
			return nil, nil
		}
		// written holds the field identifiers that are only written; an
		// address taken with & is a write and a read.
		written := map[*ast.Ident]bool{}
		target := func(e, rhs ast.Expr, onlyWritten bool) {
			sel, f := field(e)
			if f == nil {
				return
			}
			write(f, rhs)
			written[sel.Sel] = onlyWritten
			if src, g := field(rhs); g == f {
				written[src.Sel] = true // a copy x.F = y.F does not read F
			}
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if t == nil {
						return true
					}
					st, ok := derefStruct(t)
					if !ok {
						return true
					}
					set := map[*types.Var]bool{}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key := kv.Key.(*ast.Ident)
							if f, ok := info.Uses[key].(*types.Var); ok {
								write(f, kv.Value)
								written[key] = true
								set[f.Origin()] = true
							}
						} else {
							write(st.Field(i), elt)
							set[st.Field(i).Origin()] = true
						}
					}
					zero(st, set)
				case *ast.ValueSpec:
					if len(n.Values) > 0 {
						break
					}
					for _, name := range n.Names {
						if obj := info.Defs[name]; obj != nil {
							if st, ok := obj.Type().Underlying().(*types.Struct); ok {
								zero(st, nil)
							}
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
						if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
							if st, ok := info.Types[n.Args[0]].Type.Underlying().(*types.Struct); ok {
								zero(st, nil)
							}
						}
					}
				case *ast.IfStmt:
					tested := map[*types.Var]bool{}
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if e, ok := c.(ast.Expr); ok {
							if _, f := field(e); f != nil {
								tested[f] = true
							}
						}
						return true
					})
					ast.Inspect(n.Body, func(b ast.Node) bool {
						if as, ok := b.(*ast.AssignStmt); ok {
							for _, lhs := range as.Lhs {
								if _, f := field(lhs); f != nil && tested[f] && f.Pkg() == p.types {
									defaulted[f] = true
								}
							}
						}
						return true
					})
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var rhs ast.Expr
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							rhs = n.Rhs[i]
						}
						target(lhs, rhs, true)
					}
				case *ast.IncDecStmt:
					target(n.X, nil, true)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X, nil, false)
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if f, ok := obj.(*types.Var); ok && f.IsField() && !written[id] {
				reads[f.Origin()] = true
			}
		}
		for _, s := range info.Selections {
			t := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				st, ok := derefStruct(t)
				if !ok {
					break
				}
				f := st.Field(i)
				reads[f.Origin()] = true
				t = f.Type()
			}
		}
	}
	return writes, reads, zeros, defaulted
}

// zeroValue spells the zero value of t the way fieldUses spells a
// constant write, so that an explicit zero and an omitted one compare
// equal.
func zeroValue(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false"
		case u.Info()&types.IsString != 0:
			return `""`
		case u.Info()&types.IsNumeric != 0:
			return "0"
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil"
	case *types.Struct, *types.Array:
		return types.TypeString(t, nil) + "{}"
	}
	return ""
}

// jsonReachableFields returns the struct fields of every type reachable
// from an argument of an encoding/json function or method call: those
// fields are read or written by reflection.
func (l *surfaceLoader) jsonReachableFields() map[*types.Var]bool {
	fields := map[*types.Var]bool{}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				fields[u.Field(i).Origin()] = true
				walk(u.Field(i).Type())
			}
		}
	}
	for _, p := range l.pkgs {
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				}
				if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
					for _, arg := range call.Args {
						if t := p.info.Types[arg].Type; t != nil {
							walk(t)
						}
					}
				}
				return true
			})
		}
	}
	return fields
}

// derefStruct returns the struct type under t or under the type t points to.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
