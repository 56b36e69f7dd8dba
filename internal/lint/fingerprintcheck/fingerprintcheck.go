// Package fingerprintcheck enforces the canonical-fingerprint invariant:
// every exported field of a result-affecting configuration struct must
// reach that struct's content-address serialization, or carry an explicit
// marker explaining why it cannot change results.
//
// Two serialization modes exist in the repo, and the checker models both:
//
//   - JSONVisible structs are fingerprinted by json.Marshal of the whole
//     value (accel.Config via PlatformFingerprint). Any field tagged
//     `json:"-"` silently escapes the address space — that is the drift
//     this checker catches.
//   - Serialized structs are copied field-by-field into a shadow struct or
//     an options list by hand (Params.Fingerprint, PlatformSpec.Build).
//     Every exported field must be selected somewhere inside the declared
//     serializer functions; PRs 5 and 7 each forgot this step for a new
//     axis and had to patch it after review.
//
// A field that genuinely cannot affect results opts out with a marker
// comment on the field:
//
//	// fingerprint:ignore result-invariant: <why>
//
// The checker validates the marker grammar too — a marker without a
// written reason is reported, so exclusions stay justified.
package fingerprintcheck

import (
	"go/ast"
	"go/types"
	"reflect"
	"regexp"
	"strings"

	"nocbt/internal/lint/analysis"
)

// Analyzer is the fingerprintcheck entry point.
var Analyzer = &analysis.Analyzer{
	Name: "fingerprintcheck",
	Doc:  "reports exported fields of fingerprinted config structs that do not reach the canonical serialization and carry no fingerprint:ignore marker",
	Run:  run,
}

// Mode selects how a target struct is serialized into its fingerprint.
type Mode int

const (
	// JSONVisible structs fingerprint as json.Marshal of the whole value:
	// a field is serialized unless tagged json:"-".
	JSONVisible Mode = iota
	// Serialized structs are copied field-by-field by the listed
	// serializer functions; a field is serialized iff one of their bodies
	// selects it.
	Serialized
)

// Target names one struct the invariant applies to.
type Target struct {
	// Pkg and Type locate the struct (package import path + type name).
	Pkg, Type string
	Mode      Mode
	// Serializers lists the function or method names (in the same
	// package) whose bodies together must reference every exported field.
	// Only used in Serialized mode.
	Serializers []string
}

// Targets is the repo's fingerprinted-struct inventory. Tests may swap it
// to point at fixture types.
var Targets = []Target{
	// PlatformFingerprint = sha256(json.Marshal(Platform.WithDefaults())),
	// and Platform is accel.Config with noc.Config and flit.Geometry
	// embedded by value.
	{Pkg: "nocbt/internal/accel", Type: "Config", Mode: JSONVisible},
	{Pkg: "nocbt/internal/noc", Type: "Config", Mode: JSONVisible},
	{Pkg: "nocbt/internal/flit", Type: "Geometry", Mode: JSONVisible},
	// Params.Fingerprint hand-copies into fingerprintParams; Table1Config
	// rides along as a JSON-marshaled value inside it.
	{Pkg: "nocbt", Type: "Params", Mode: Serialized, Serializers: []string{"Fingerprint", "withDefaults", "table1Params"}},
	{Pkg: "nocbt", Type: "SweepSpec", Mode: Serialized, Serializers: []string{"Fingerprint"}},
	// SweepNames (btserved's SweepParams) reaches the cache key through
	// the SweepSpec its Spec method resolves.
	{Pkg: "nocbt", Type: "SweepNames", Mode: Serialized, Serializers: []string{"Spec"}},
	{Pkg: "nocbt", Type: "Table1Config", Mode: JSONVisible},
	// Serving specs reach the cache key through the platform they build:
	// a field that never reaches Build cannot affect the fingerprint.
	{Pkg: "nocbt/internal/serve", Type: "PlatformSpec", Mode: Serialized, Serializers: []string{"Build", "withDefaults"}},
}

const marker = "fingerprint:ignore"

var markerRE = regexp.MustCompile(`fingerprint:ignore result-invariant: (.+)`)

func run(pass *analysis.Pass) (any, error) {
	for _, t := range Targets {
		if t.Pkg == pass.Pkg.Path() {
			checkTarget(pass, t)
		}
	}
	return nil, nil
}

func checkTarget(pass *analysis.Pass, t Target) {
	obj := pass.Pkg.Scope().Lookup(t.Type)
	if obj == nil {
		pass.Report(pass.Files[0].Package, "fingerprinted struct %s.%s not found in package", t.Pkg, t.Type)
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Report(obj.Pos(), "fingerprint target %s is not a struct", t.Type)
		return
	}

	// Locate the struct's AST for field tags and marker comments.
	astFields := structFields(pass, t.Type)

	var serialized map[*types.Var]bool
	if t.Mode == Serialized {
		serialized = fieldsSelectedIn(pass, obj.Type(), t.Serializers)
	}

	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if !field.Exported() {
			continue
		}
		af := astFields[field.Name()]
		ignored, bad := markerState(af)
		if bad {
			pass.Report(field.Pos(), "malformed fingerprint marker on %s.%s: want `// fingerprint:ignore result-invariant: <why>` with a non-empty reason", t.Type, field.Name())
			continue
		}
		var reaches bool
		switch t.Mode {
		case JSONVisible:
			reaches = jsonVisible(st.Tag(i))
		case Serialized:
			reaches = serialized[field]
		}
		switch {
		case reaches && ignored:
			pass.Report(field.Pos(), "%s.%s carries a fingerprint:ignore marker but reaches the serialization anyway; drop the stale marker", t.Type, field.Name())
		case !reaches && !ignored:
			switch t.Mode {
			case JSONVisible:
				pass.Report(field.Pos(), "%s.%s is tagged json:\"-\" and never reaches the canonical fingerprint; serialize it or mark it `// fingerprint:ignore result-invariant: <why>`", t.Type, field.Name())
			case Serialized:
				pass.Report(field.Pos(), "%s.%s never reaches the canonical fingerprint (not referenced in %s); serialize it or mark it `// fingerprint:ignore result-invariant: <why>`",
					t.Type, field.Name(), strings.Join(t.Serializers, "/"))
			}
		}
	}
}

// jsonVisible reports whether a struct tag keeps the field in the JSON
// encoding. Only `json:"-"` removes a field entirely; omitempty still
// serializes every non-zero value, which is exactly the fingerprint
// stability the omitempty fields rely on.
func jsonVisible(tag string) bool {
	name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
	return name != "-"
}

// structFields maps field names onto their AST nodes for the named struct.
func structFields(pass *analysis.Pass, typeName string) map[string]*ast.Field {
	out := map[string]*ast.Field{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typeName {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						out[name.Name] = f
					}
				}
			}
			return false
		})
	}
	return out
}

// markerState inspects a field's doc and line comments for the ignore
// marker: (true, false) = well-formed marker, (false, true) = malformed.
func markerState(f *ast.Field) (ignored, malformed bool) {
	if f == nil {
		return false, false
	}
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.Contains(c.Text, marker) {
				continue
			}
			m := markerRE.FindStringSubmatch(c.Text)
			if m == nil || len(strings.TrimSpace(m[1])) < analysis.MinJustification {
				return false, true
			}
			ignored = true
		}
	}
	return ignored, false
}

// fieldsSelectedIn walks the named serializer functions and collects which
// fields of the target type their bodies select.
func fieldsSelectedIn(pass *analysis.Pass, target types.Type, serializers []string) map[*types.Var]bool {
	names := map[string]bool{}
	for _, s := range serializers {
		names[s] = true
	}
	out := map[*types.Var]bool{}
	targetObj := namedObj(target)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !names[fd.Name.Name] || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection, ok := pass.TypesInfo.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return true
				}
				field, ok := selection.Obj().(*types.Var)
				if !ok {
					return true
				}
				// The selection may go through pointers or embedding; what
				// matters is whether the field belongs to the target.
				if recv := namedObj(selection.Recv()); recv != nil && recv == targetObj {
					out[field] = true
				}
				return true
			})
		}
	}
	return out
}

func namedObj(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
}
