package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadcode keeps every internal function on a path that something runs:
// a func, method or type in internal/ (internal/testutil aside) that no
// root reaches is a finding, keyed file:Name or file:Type.Method.
//
// Roots are every declaration in a package outside internal/ (the nde
// facade, cmd/*, examples/*, bench/), every init, every package-level
// var initializer, and every allowlisted key: a test seam that tests in
// other packages call, whose own callees then need no key. A reached
// declaration reaches every object its body or type uses. A method is
// reached when reached code selects it, or when its receiver type is
// reached and the method belongs to an interface the type implements
// (declared in the module, in a package it imports, or error), so
// String, MarshalJSON and sort.Interface methods count as used. Test
// files are not loaded: code that only its own package's tests call
// belongs in those _test.go files. Consts and vars are not reported,
// because a zero-value enum member selects behaviour without ever being
// named.
var Deadcode = &Analyzer{
	Name: "deadcode",
	Doc:  "every func, method and type in internal/ must be reachable from the facade, cmd/*, examples/*, bench/ or an allowlisted test seam",
	Applies: func(relPkg string) bool {
		return isInternal(relPkg) && relPkg != "internal/testutil"
	},
	Run: func(p *Pass) {
		if p.memo == nil {
			p.memo = deadDecls(p.Mod, p.allow)
		}
		for _, d := range p.memo.(map[*Package][]*declNode)[p.Pkg] {
			p.report(d.node, d.name, "%s is unreachable from the facade, cmd/*, examples/* and bench/ — delete it, move it into its package's tests, or allowlist a test seam", d.name)
		}
	},
}

// declNode is one package-level declaration: the object it declares,
// the syntax walked once the object is reached, and its report name.
type declNode struct {
	obj  types.Object
	node ast.Node
	name string // Name, or Type.Method
	pkg  *Package
}

func isInternal(relPkg string) bool {
	return relPkg == "internal" || strings.HasPrefix(relPkg, "internal/")
}

// deadDecls runs the reachability pass over the whole module and
// returns, per package, the funcs, methods and types in the deadcode
// scope that nothing reaches. The walk runs twice from one worklist:
// first from the true roots, then on from the allowlisted seams, so a
// seam's callees are not reported while a seam that real code now
// reaches stops being a finding and its key goes stale.
func deadDecls(m *Module, allow map[string]bool) map[*Package][]*declNode {
	decls := make(map[types.Object]*declNode)
	var order, roots []*declNode // order: source order, for deterministic reports
	seams := make(map[*declNode]bool)
	add := func(pkg *Package, obj types.Object, node ast.Node, name string, root bool) *declNode {
		d := &declNode{obj: obj, node: node, name: name, pkg: pkg}
		if obj != nil {
			decls[obj] = d
			order = append(order, d)
		}
		if root {
			roots = append(roots, d)
		}
		return d
	}
	for _, pkg := range m.Packages() {
		outside := !isInternal(m.relPkg(pkg.Path))
		for _, file := range pkg.Files {
			relFile := m.Rel(m.Fset.Position(file.Pos()).Filename)
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					if decl.Recv != nil {
						name = recvTypeName(decl.Recv.List[0].Type) + "." + name
					}
					isInit := decl.Recv == nil && name == "init"
					d := add(pkg, pkg.Info.Defs[decl.Name], decl, name, outside || isInit)
					if !outside && allow[relFile+":"+name] {
						seams[d] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							d := add(pkg, pkg.Info.Defs[spec.Name], spec, spec.Name.Name, outside)
							if !outside && allow[relFile+":"+spec.Name.Name] {
								seams[d] = true
							}
						case *ast.ValueSpec:
							// a var initializer always runs; a const is
							// walked only once something names it
							for _, id := range spec.Names {
								add(pkg, pkg.Info.Defs[id], spec, id.Name, outside || decl.Tok == token.VAR)
							}
						}
					}
				}
			}
		}
	}

	r := &reach{decls: decls, live: make(map[types.Object]bool), ifaces: interfacesByMethod(m)}
	for _, d := range roots {
		r.visit(d)
	}
	r.drain()
	dead := make(map[*declNode]bool)
	for _, d := range order {
		if _, isVal := d.node.(*ast.ValueSpec); !isVal && !r.live[d.obj] {
			dead[d] = true
		}
	}
	for d := range seams {
		r.visit(d)
	}
	r.drain()

	out := make(map[*Package][]*declNode)
	for _, d := range order {
		// a seam stays a finding (its key is what allows it); what only
		// a seam reaches is not one
		if dead[d] && (seams[d] || !r.live[d.obj]) {
			out[d.pkg] = append(out[d.pkg], d)
		}
	}
	return out
}

// reach is the worklist of the reachability pass.
type reach struct {
	decls  map[types.Object]*declNode
	live   map[types.Object]bool
	ifaces map[string][]*types.Interface // method name -> interfaces declaring it
	queue  []*declNode
}

// visit marks d live (its object, when it has one) and queues its syntax.
func (r *reach) visit(d *declNode) {
	if d.obj != nil {
		if r.live[d.obj] {
			return
		}
		r.live[d.obj] = true
	}
	r.queue = append(r.queue, d)
}

func (r *reach) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if d, ok := r.decls[obj]; ok {
		r.visit(d)
	}
}

func (r *reach) drain() {
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		info := d.pkg.Info
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					r.use(obj)
				}
			}
			return true
		})
		if tn, ok := d.obj.(*types.TypeName); ok {
			r.implemented(tn)
		}
	}
}

// implemented reaches the methods of a live named type that belong to
// an interface the type implements. A generic type is checked as
// instantiated with its own type parameters, as its methods see it.
func (r *reach) implemented(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || types.IsInterface(named) {
		return
	}
	var t types.Type = named
	if tps := named.TypeParams(); tps.Len() > 0 {
		args := make([]types.Type, tps.Len())
		for i := range args {
			args[i] = tps.At(i)
		}
		inst, err := types.Instantiate(nil, named, args, false)
		if err != nil {
			return
		}
		t = inst
	}
	ptr := types.NewPointer(t)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		for _, iface := range r.ifaces[fn.Name()] {
			if types.Implements(ptr, iface) {
				r.use(fn)
				break
			}
		}
	}
}

// interfacesByMethod indexes error and every non-generic named
// interface declared in the module or exported by a package it imports,
// directly or not, by method name.
func interfacesByMethod(m *Module) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	own := make(map[*types.Package]bool)
	for _, pkg := range m.Packages() {
		own[pkg.Types] = true
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !(own[p] || tn.Exported()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			addIface(tn.Type())
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range m.Packages() {
		walk(pkg.Types)
	}
	return byName
}

// recvTypeName is the base type name of a method receiver: T for T,
// *T, T[K] and *T[K, V].
func recvTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
