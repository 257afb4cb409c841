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
// options to a non-zero value must move the cache key, unless the option
// it sets is on optionsKey's exempt list under the same name (Effort,
// accepted and ignored).  A wire field added to CompileOptions but
// dropped by resolve or optionsKey fails here.
func TestKeyCoversEveryWireField(t *testing.T) {
	zero := wireKey(t, CompileOptions{})
	typ := reflect.TypeOf(CompileOptions{})
	for i := 0; i < typ.NumField(); i++ {
		if _, exempt := optionsKeyExempt[typ.Field(i).Name]; exempt {
			continue
		}
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
	"Effort":       "accepted and ignored: every effort compiles the one II search's object",
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

// TestKeyPinned pins literal keys, so that a change to how a compile is
// keyed — the source canonicaliser, the machine fingerprint, optionsKey's
// rendering, the cell-count suffix — shows up as a deliberate edit here
// rather than silently.  No key outlives its process, so a re-pin costs
// nothing but the review; the one property the values themselves carry
// is that every effort shares the default's artifact.
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
		{"zero options on warp", CompileOptions{}, "f3057114b1804dd7f0199498e60ce82ee09f085548b0e1350b91104e080675c3"},
		{"every wire field set", every, "b12868690f8d7bc0dddffabba330d4a6474747455d34471a51947a894f0e7d04"},
		{`effort "heuristic" is effort ""`, CompileOptions{Effort: "heuristic"}, "f3057114b1804dd7f0199498e60ce82ee09f085548b0e1350b91104e080675c3"},
		{`effort "exact" is effort ""`, CompileOptions{Effort: "exact"}, "f3057114b1804dd7f0199498e60ce82ee09f085548b0e1350b91104e080675c3"},
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
	if got, want := j.key.String(), "68715a17927c0dc47c11458aff323504cc573f415f5f675f379e509d6e984192"; got != want {
		t.Errorf("partitioned key %s, want %s", got, want)
	}
}
