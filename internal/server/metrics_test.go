package server

import (
	"reflect"
	"testing"
)

// TestMetricsFieldsAreSeries: writePrometheus renders every Metrics
// field, so each must be a Counter or a Gauge that names its series and
// help text, and no two may name the same series.
func TestMetricsFieldsAreSeries(t *testing.T) {
	typ := reflect.TypeFor[Metrics]()
	owner := make(map[string]string, typ.NumField())
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Type != reflect.TypeFor[Counter]() && f.Type != reflect.TypeFor[Gauge]() {
			t.Errorf("field %s is a %s, want Counter or Gauge", f.Name, f.Type)
		}
		name, help := f.Tag.Get("metric"), f.Tag.Get("help")
		if name == "" || help == "" {
			t.Errorf("field %s has metric %q and help %q; both tags must be set", f.Name, name, help)
		}
		if prev, dup := owner[name]; dup {
			t.Errorf("fields %s and %s both name series %q", prev, f.Name, name)
		}
		owner[name] = f.Name
	}
}
