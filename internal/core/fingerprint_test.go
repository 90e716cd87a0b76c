package core

import "testing"

// TestFingerprintGolden pins the exact Fingerprint strings of the two
// option presets. The hawkd cache key and the cross-compile memo key are
// built from this string, so any drift — a reordered field, a renamed
// token, an option added to or removed from Options — silently orphans
// every cached result and on-disk memo entry. Change these strings only
// together with a deliberate cache-format bump.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", DefaultOptions(),
			"opts1=true,2=true,3=true,4=true,5=true,6=true,7=true;unroll=0;budget=0;exbits=16;samples=2000;skiplint=false;seed=1"},
		{"naive", NaiveOptions(),
			"opts1=false,2=false,3=false,4=false,5=false,6=false,7=false;unroll=0;budget=0;exbits=16;samples=2000;skiplint=true;seed=1"},
	} {
		if got := tc.opts.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() =\n  %q\nwant\n  %q", tc.name, got, tc.want)
		}
	}
}
