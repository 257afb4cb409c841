package service

import (
	"reflect"
	"testing"

	"softpipe"
)

// These tests guard the bug class "threaded but not keyed": an option
// that reaches the compiler without reaching the cache key silently
// serves one configuration's artifact for another's request.

// setNonZero sets a struct field to a valid non-default value, by kind.
// A kind it cannot set (pointer, interface, ...) returns false.
func setNonZero(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int64:
		f.SetInt(1)
	case reflect.String:
		f.SetString("exact") // the only string option is an effort name
	default:
		return false
	}
	return true
}

func wireKey(t *testing.T, o CompileOptions) string {
	t.Helper()
	j, err := resolveJob(sumSource, "warp", o, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j.key.String()
}

// TestKeyCoversEveryWireField: setting any one field of the request's
// options to a non-zero value must move the cache key.  A wire field
// added to CompileOptions but dropped by resolve or optionsKey fails
// here.
func TestKeyCoversEveryWireField(t *testing.T) {
	zero := wireKey(t, CompileOptions{})
	typ := reflect.TypeOf(CompileOptions{})
	for i := 0; i < typ.NumField(); i++ {
		var o CompileOptions
		if !setNonZero(reflect.ValueOf(&o).Elem().Field(i)) {
			t.Fatalf("CompileOptions.%s: kind %s — teach setNonZero a value for it", typ.Field(i).Name, typ.Field(i).Type.Kind())
		}
		if wireKey(t, o) == zero {
			t.Errorf("CompileOptions.%s is threaded but not keyed: %+v shares the zero options' key", typ.Field(i).Name, o)
		}
	}
}

// optionsKeyExempt lists the softpipe.Options fields optionsKey does not
// render, each with the reason that is safe.  A field that is neither
// rendered nor listed fails TestOptionsKeyCoversOptions, so a new option
// cannot reach the service without somebody deciding where it goes.
var optionsKeyExempt = map[string]string{
	"Ctx":          "non-semantic: bounds the compile, never changes its result",
	"Tracer":       "non-semantic: observes the compile, never changes its result",
	"EffortBudget": "left 0 (the backend's default) by resolve — no wire field sets it; when one does, it must be keyed",
}

// TestOptionsKeyCoversOptions: every softpipe.Options field is rendered
// into the key or exempt with a reason.
func TestOptionsKeyCoversOptions(t *testing.T) {
	zero := optionsKey(softpipe.Options{})
	typ := reflect.TypeOf(softpipe.Options{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		var o softpipe.Options
		keyed := setNonZero(reflect.ValueOf(&o).Elem().Field(i)) && optionsKey(o) != zero
		_, exempt := optionsKeyExempt[name]
		switch {
		case keyed && exempt:
			t.Errorf("softpipe.Options.%s is rendered into the key but still on the exempt list", name)
		case !keyed && !exempt:
			t.Errorf("softpipe.Options.%s is not rendered by optionsKey and not on the exempt list: key it, or exempt it with a reason", name)
		}
	}
	for name := range optionsKeyExempt {
		if !seen[name] {
			t.Errorf("exempt list names %s, which softpipe.Options no longer has", name)
		}
	}
	// The exemptions that rest on what resolve does hold only while it
	// does it.
	got, err := CompileOptions{}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got.EffortBudget != 0 || got.Ctx != nil || got.Tracer != nil {
		t.Errorf("resolve no longer pins what the exempt list relies on: %+v", got)
	}
}

// TestKeyPinned pins literal keys to their values before the key was
// computed from the resolved options, so a mixed fleet of old and new
// builds agrees on every key, and no restart orphans a disk cache.  The
// every-field and partitioned pins are what builds that still had the
// ablation fields and unroll_inner_trip produced for the same three fields
// set.
func TestKeyPinned(t *testing.T) {
	every := CompileOptions{Baseline: true, Verify: true, Effort: "exact"}
	for i := 0; i < reflect.TypeOf(every).NumField(); i++ {
		if reflect.ValueOf(every).Field(i).IsZero() {
			t.Fatalf("the every-field-set pin leaves CompileOptions.%s zero", reflect.TypeOf(every).Field(i).Name)
		}
	}
	for _, c := range []struct {
		name string
		opts CompileOptions
		want string
	}{
		{"zero options on warp", CompileOptions{}, "c753b3be55b984f520df7ab15e8fad32e1c69b2fd42ddfec0a744d94e68b1ed6"},
		{"every wire field set", every, "0cc50aa241efe62b4c7d02858736e3f5976a5a17dbacfd381836a0bae5930175"},
		{`effort "heuristic" is effort ""`, CompileOptions{Effort: "heuristic"}, "c753b3be55b984f520df7ab15e8fad32e1c69b2fd42ddfec0a744d94e68b1ed6"},
	} {
		if got := wireKey(t, c.opts); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
	// The partitioned key appends the cell count to the same string.
	j, err := resolveJob(sumSource, "warp", every, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := j.key.String(), "2e6633ae0ff60cae57c457ece3afa06213a0e4c947b1b6b229eb3081bcb97174"; got != want {
		t.Errorf("partitioned key %s, want %s", got, want)
	}
}
