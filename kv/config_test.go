package kv

import (
	"reflect"
	"slices"
	"testing"
)

// TestConfigSurface pins the exported fields of the store's, the durability
// layer's, the pipeline's and the governor's configs to the ones the knob
// census kept (ROADMAP.md, direction 8): a setting that only tests select
// becomes a constant, so adding or reviving a field has to be a deliberate
// diff here too.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{Config{}, []string{"Slots", "HeapWords", "MaxKeyBytes", "MaxValueBytes", "PoolThreads",
			"GlobalFallback", "MaxRetries", "Faults", "Durability", "Now"}},
		{Durability{}, []string{"Dir", "FS", "SegmentBytes", "NoSync", "SnapshotEvery"}},
		{JobsConfig{}, []string{"Interval", "Workers"}},
		{AdmissionConfig{}, []string{"Now"}},
	} {
		rt := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("exported %s fields:\n got %v\nwant %v", rt.Name(), got, c.want)
		}
	}
}
