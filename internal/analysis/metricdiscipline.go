package analysis

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// Metricdiscipline enforces the observability contract on the
// Prometheus layer. A collector is a struct field tagged
// `metric:"<series name>"`, and the rendering walks those fields, so
// every collector is exposed by construction. Two rules still need a
// static pass: the series name must carry the htc_ prefix, so this
// service's series never collide with another job's in a shared
// Prometheus; and the field must be incremented (Add, or Store for
// gauges) somewhere, or it forever exports zero and dashboards silently
// flatline.
var Metricdiscipline = &Analyzer{
	Name: "metricdiscipline",
	Doc: "metric-tagged collector fields must name an htc_-prefixed series " +
		"and be incremented (Add or Store) somewhere",
	Run: runMetricdiscipline,
}

// A collector is a metric-tagged field and the series name its tag gives.
type collector struct {
	obj  types.Object
	name string
}

func runMetricdiscipline(pass *Pass) error {
	collectors := metricCollectors(pass.Pkg)
	if len(collectors) == 0 {
		return nil
	}
	incremented := make(map[types.Object]bool, len(collectors))
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj := incrementTarget(pass.Pkg, call); obj != nil {
					incremented[obj] = true
				}
			}
			return true
		})
	}
	for _, c := range collectors {
		if !strings.HasPrefix(c.name, "htc_") {
			pass.Reportf(c.obj.Pos(), "collector %s is exported as %q: metric names must carry the htc_ prefix", c.obj.Name(), c.name)
		}
		if !incremented[c.obj] {
			pass.Reportf(c.obj.Pos(), "collector %s is never incremented: it will flatline at zero forever", c.obj.Name())
		}
	}
	return nil
}

// metricCollectors finds every metric-tagged struct field in the
// package, in declaration order.
func metricCollectors(pkg *Package) []collector {
	var collectors []collector
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			field, ok := n.(*ast.Field)
			if !ok || field.Tag == nil {
				return true
			}
			tag, err := strconv.Unquote(field.Tag.Value)
			if err != nil {
				return true
			}
			if name, tagged := reflect.StructTag(tag).Lookup("metric"); tagged {
				for _, id := range field.Names {
					collectors = append(collectors, collector{pkg.Info.Defs[id], name})
				}
			}
			return true
		})
	}
	return collectors
}

// incrementTarget matches a call of the form <expr>.<Field>.Add(...) or
// <expr>.<Field>.Store(...) and returns the field object, or nil.
func incrementTarget(pkg *Package, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "Store") {
		return nil
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if fieldSel, ok := pkg.Info.Selections[inner]; ok && fieldSel.Kind() == types.FieldVal {
		return fieldSel.Obj()
	}
	return nil
}
