// Package facts defines the per-package annotation facts pclasslint
// exchanges between compilation units.
//
// The engine-room invariants the analyzers enforce are declared with
// magic comments in the source ("annotations"):
//
//	//pclass:hotpath     on a function: the body may not allocate
//	//pclass:immutable   on a type: no field writes outside its package
//	//pclass:exhaustive  on a const enum type: switches must cover it
//	//pclass:pooled      on a function: its result comes from a sync.Pool;
//	                     on a type: every value of it is pool-managed
//	//pclass:releases    on a function: calling it may return its pooled
//	                     receiver/arguments to the pool
//	//pclass:pinned      on an atomic.Pointer field: the hot-swap pointer;
//	                     on a function: the one-Load-per-batch protocol
//	//pclass:cow         on a field: copy-on-write storage
//	//pclass:cow-mutator on a function: the blessed COW mutation point
//	                     (function-local, not exported as a fact)
//	//pclass:mutates     on a method: it writes through its receiver
//
// Annotations on exported types must be visible to analyses of the
// packages that import them, but an importing compilation unit only sees
// the defining package's export data, not its comments. Scan therefore
// distills each package's annotations into a Package value, which the
// vettool driver serializes into the unit's .vetx facts file; go vet
// hands dependency facts files back when analyzing importers — the same
// mechanism golang.org/x/tools/go/analysis uses for its facts, carrying
// our single package-level fact type instead.
package facts

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Prefix starts every pclass annotation comment.
const Prefix = "//pclass:"

// Member is one package-level constant of an exhaustive enum type.
type Member struct {
	Name string
	// Value is the constant's exact value (constant.Value.ExactString),
	// so aliases with equal values count as covering the same member.
	Value string
	// Exported members are the only ones switches outside the defining
	// package are required to cover.
	Exported bool
}

// Package holds the annotation facts of one package.
type Package struct {
	// Immutable lists type names declared //pclass:immutable.
	Immutable []string
	// ExhaustiveEnums maps a //pclass:exhaustive enum type name to its
	// package-level constant members.
	ExhaustiveEnums map[string][]Member
	// PooledFuncs lists //pclass:pooled functions — pool-backed getters —
	// as FuncKey strings ("Recv.Name" for methods, "Name" otherwise).
	PooledFuncs []string
	// PooledTypes lists //pclass:pooled type names: every value of such a
	// type is pool-managed for its whole lifetime.
	PooledTypes []string
	// ReleaseFuncs lists //pclass:releases functions (FuncKey strings):
	// calling one may return its pooled receiver or arguments to the pool.
	ReleaseFuncs []string
	// PinnedFields lists //pclass:pinned atomic.Pointer fields as
	// "Type.Field" strings.
	PinnedFields []string
	// CowFields lists //pclass:cow copy-on-write storage fields as
	// "Type.Field" strings.
	CowFields []string
	// MutatorMethods lists //pclass:mutates methods (FuncKey strings):
	// methods that write through their receiver.
	MutatorMethods []string
}

// Empty reports whether the package declares no facts.
func (p *Package) Empty() bool {
	return p == nil || len(p.Immutable) == 0 && len(p.ExhaustiveEnums) == 0 &&
		len(p.PooledFuncs) == 0 && len(p.PooledTypes) == 0 && len(p.ReleaseFuncs) == 0 &&
		len(p.PinnedFields) == 0 && len(p.CowFields) == 0 && len(p.MutatorMethods) == 0
}

// HasImmutable reports whether name is an //pclass:immutable type.
func (p *Package) HasImmutable(name string) bool {
	return p != nil && contains(p.Immutable, name)
}

// EnumMembers returns the members of a //pclass:exhaustive enum type, or
// nil when name is not one.
func (p *Package) EnumMembers(name string) []Member {
	if p == nil {
		return nil
	}
	return p.ExhaustiveEnums[name]
}

// HasPooledFunc reports whether key names a //pclass:pooled getter.
func (p *Package) HasPooledFunc(key string) bool {
	return p != nil && contains(p.PooledFuncs, key)
}

// HasPooledType reports whether name is a //pclass:pooled type.
func (p *Package) HasPooledType(name string) bool {
	return p != nil && contains(p.PooledTypes, name)
}

// HasReleaseFunc reports whether key names a //pclass:releases function.
func (p *Package) HasReleaseFunc(key string) bool {
	return p != nil && contains(p.ReleaseFuncs, key)
}

// HasPinnedField reports whether "Type.Field" is a //pclass:pinned field.
func (p *Package) HasPinnedField(key string) bool {
	return p != nil && contains(p.PinnedFields, key)
}

// HasCowField reports whether "Type.Field" is a //pclass:cow field.
func (p *Package) HasCowField(key string) bool {
	return p != nil && contains(p.CowFields, key)
}

// HasMutatorMethod reports whether key names a //pclass:mutates method.
func (p *Package) HasMutatorMethod(key string) bool {
	return p != nil && contains(p.MutatorMethods, key)
}

// FuncKey is the fact key of a function object: "Recv.Name" for methods
// (bare receiver type name, pointers stripped), "Name" for plain
// functions.
func FuncKey(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return name + "." + fn.Name()
		}
	}
	return fn.Name()
}

// recvTypeName unwraps a receiver type to its named type's bare name.
func recvTypeName(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Encode serializes the facts for a .vetx file.
func (p *Package) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("facts: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes facts written by Encode. Empty input decodes to
// empty facts (a dependency analyzed before it declared any).
func Decode(data []byte) (*Package, error) {
	p := new(Package)
	if len(data) == 0 {
		return p, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(p); err != nil {
		return nil, fmt.Errorf("facts: decode: %w", err)
	}
	return p, nil
}

// Annotated reports whether the comment group carries the given
// annotation (e.g. name "immutable" matches a "//pclass:immutable" line;
// trailing text after the annotation word is allowed).
func Annotated(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := strings.CutPrefix(c.Text, Prefix); ok {
			if text == name || strings.HasPrefix(text, name+" ") {
				return true
			}
		}
	}
	return false
}

// Scan collects the annotation facts declared in one package's files.
// info.Defs must be populated (it resolves annotated TypeSpecs to their
// type objects so enum members can be matched by type identity).
func Scan(files []*ast.File, pkg *types.Package, info *types.Info) *Package {
	out := &Package{}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					scanTypeSpec(out, pkg, info, d, ts)
				}
			case *ast.FuncDecl:
				scanFuncDecl(out, info, d)
			}
		}
	}
	return out
}

// scanTypeSpec collects one type declaration's annotations: the type-level
// immutable/exhaustive/pooled markers, and the pinned/cow field markers of
// a struct type's fields.
func scanTypeSpec(out *Package, pkg *types.Package, info *types.Info, gd *ast.GenDecl, ts *ast.TypeSpec) {
	// The annotation may sit on the grouped decl or the spec.
	has := func(name string) bool {
		return Annotated(gd.Doc, name) || Annotated(ts.Doc, name)
	}
	obj, _ := info.Defs[ts.Name].(*types.TypeName)
	if obj == nil {
		return
	}
	if has("immutable") {
		out.Immutable = append(out.Immutable, obj.Name())
	}
	if has("pooled") {
		out.PooledTypes = append(out.PooledTypes, obj.Name())
	}
	if has("exhaustive") {
		if out.ExhaustiveEnums == nil {
			out.ExhaustiveEnums = make(map[string][]Member)
		}
		out.ExhaustiveEnums[obj.Name()] = enumMembers(pkg, obj)
	}
	// Field annotations live on the field's doc comment or its trailing
	// line comment.
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		pinned := Annotated(field.Doc, "pinned") || Annotated(field.Comment, "pinned")
		cow := Annotated(field.Doc, "cow") || Annotated(field.Comment, "cow")
		if !pinned && !cow {
			continue
		}
		for _, name := range field.Names {
			key := obj.Name() + "." + name.Name
			if pinned {
				out.PinnedFields = append(out.PinnedFields, key)
			}
			if cow {
				out.CowFields = append(out.CowFields, key)
			}
		}
	}
}

// scanFuncDecl collects one function's pooled/releases/mutates annotations
// under its FuncKey. (//pclass:pinned and //pclass:cow-mutator on
// functions stay function-local: the analyzers read them off the
// declaration under analysis, never across packages.)
func scanFuncDecl(out *Package, info *types.Info, fd *ast.FuncDecl) {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	if Annotated(fd.Doc, "pooled") {
		out.PooledFuncs = append(out.PooledFuncs, FuncKey(fn))
	}
	if Annotated(fd.Doc, "releases") {
		out.ReleaseFuncs = append(out.ReleaseFuncs, FuncKey(fn))
	}
	if Annotated(fd.Doc, "mutates") {
		out.MutatorMethods = append(out.MutatorMethods, FuncKey(fn))
	}
}

// enumMembers lists the package-level constants whose type is exactly the
// enum's named type, in declaration-name order (scope order is sorted).
func enumMembers(pkg *types.Package, enum *types.TypeName) []Member {
	var out []Member
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || types.Unalias(c.Type()) != enum.Type() {
			continue
		}
		out = append(out, Member{
			Name:     c.Name(),
			Value:    c.Val().ExactString(),
			Exported: c.Exported(),
		})
	}
	return out
}
