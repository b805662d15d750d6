package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBatchComparison guards the acceptance bar of the batching pipeline: on
// the Get-heavy MIS workload the batched runs must acquire at least 2x fewer
// shard locks, and every algorithm must produce byte-identical results with
// batching on and off.
func TestBatchComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("batch comparison runs every algorithm twice")
	}
	rows, _, err := BatchComparison(Options{Datasets: []string{"OK", "TW"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if !row.Identical {
			t.Errorf("%s/%s: batched and unbatched results differ", row.Graph, row.Algo)
		}
		if row.ShardVisitsOn <= 0 {
			t.Errorf("%s/%s: no shard visits recorded", row.Graph, row.Algo)
		}
		if row.Algo == "MIS" && row.VisitReduction < 2 {
			t.Errorf("%s/MIS: shard-visit reduction %.2fx, want >= 2x", row.Graph, row.VisitReduction)
		}
	}
}

// TestBatchSmokeJSONRoundTrip exercises the BENCH_smoke.json emission used
// by `make bench-smoke` on a synthetic snapshot with every field of every
// section set, and the options BatchSmoke resolves before running.
func TestBatchSmokeJSONRoundTrip(t *testing.T) {
	if got := (Options{}).smokeDefaults(); !reflect.DeepEqual(got.Datasets, []string{"OK", "TW"}) {
		t.Fatalf("unset datasets should pin to OK+TW, got %v", got.Datasets)
	}
	custom := Options{Datasets: []string{"OK"}, Machines: 4}.smokeDefaults()
	if len(custom.Datasets) != 1 || custom.Machines != 4 {
		t.Fatalf("caller options not honored: %+v", custom)
	}

	var smoke Smoke
	next := 0
	fillNonZero(reflect.ValueOf(&smoke).Elem(), &next)
	v := reflect.ValueOf(smoke)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			t.Fatalf("synthetic snapshot leaves %s empty", v.Type().Field(i).Name)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	if err := WriteSmokeJSON(path, smoke); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Smoke
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, smoke) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", back, smoke)
	}
}

// fillNonZero sets every leaf of v to a distinct non-zero value, giving each
// slice one element.
func fillNonZero(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0), next)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}
