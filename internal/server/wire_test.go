package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdp/internal/dataset"
)

func testSchemaTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl, err := dataset.ReadCSV(strings.NewReader(
		"Age:int,Score:float,City:string,OptIn:bool\n" +
			"30,1.5,irvine,true\n" +
			"12,0.25,tustin,false\n" +
			"70,9.5,irvine,true\n"))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestCompilePredicateRoundTrip decodes predicate specs from JSON — the
// way they actually arrive — compiles them, and checks their semantics
// record by record.
func TestCompilePredicateRoundTrip(t *testing.T) {
	tbl := testSchemaTable(t)
	cases := []struct {
		name string
		spec string
		want []bool // per record
	}{
		{"cmp-int", `{"op":"cmp","attr":"Age","cmp":"<=","value":17}`, []bool{false, true, false}},
		{"cmp-float", `{"op":"cmp","attr":"Score","cmp":">","value":1.0}`, []bool{true, false, true}},
		{"cmp-string", `{"op":"cmp","attr":"City","cmp":"=","value":"irvine"}`, []bool{true, false, true}},
		{"cmp-bool", `{"op":"cmp","attr":"OptIn","cmp":"=","value":false}`, []bool{false, true, false}},
		{"not", `{"op":"not","args":[{"op":"cmp","attr":"City","cmp":"=","value":"irvine"}]}`, []bool{false, true, false}},
		{"and", `{"op":"and","args":[
			{"op":"cmp","attr":"Age","cmp":">=","value":18},
			{"op":"cmp","attr":"City","cmp":"=","value":"irvine"}]}`, []bool{true, false, true}},
		{"or", `{"op":"or","args":[
			{"op":"cmp","attr":"Age","cmp":"<=","value":17},
			{"op":"cmp","attr":"Score","cmp":">","value":9}]}`, []bool{false, true, true}},
		{"true", `{"op":"true"}`, []bool{true, true, true}},
		{"false", `{"op":"false"}`, []bool{false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var spec PredicateSpec
			if err := json.Unmarshal([]byte(tc.spec), &spec); err != nil {
				t.Fatalf("decode: %v", err)
			}
			pred, err := compilePredicate(spec, tbl.Schema())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for i, r := range tbl.Records() {
				if got := pred.Eval(r); got != tc.want[i] {
					t.Errorf("record %d: got %v, want %v (pred %s)", i, got, tc.want[i], pred)
				}
			}
		})
	}
}

func TestCompilePredicateErrors(t *testing.T) {
	tbl := testSchemaTable(t)
	bad := []PredicateSpec{
		{Op: "cmp", Attr: "Nope", Cmp: "=", Value: "x"},                // unknown attr
		{Op: "cmp", Attr: "Age", Cmp: "~", Value: float64(1)},          // unknown operator
		{Op: "cmp", Attr: "Age", Cmp: "=", Value: "12"},                // string for int
		{Op: "cmp", Attr: "Age", Cmp: "=", Value: 12.5},                // fractional for int
		{Op: "cmp", Attr: "OptIn", Cmp: "=", Value: "true"},            // string for bool
		{Op: "cmp", Attr: "City", Cmp: "=", Value: float64(3)},         // number for string
		{Op: "not", Args: nil},                                         // not needs 1 arg
		{Op: "xor", Args: []PredicateSpec{{Op: "true"}, {Op: "true"}}}, // unknown op
	}
	for i, spec := range bad {
		if _, err := compilePredicate(spec, tbl.Schema()); err == nil {
			t.Errorf("case %d (%+v): expected a compile error", i, spec)
		}
	}
}

func TestCompileDomain(t *testing.T) {
	tbl := testSchemaTable(t)

	d, err := compileDomain(DomainSpec{Attr: "City", Keys: []string{"irvine", "tustin"}}, tbl)
	if err != nil || d.Size() != 2 {
		t.Fatalf("categorical: size %v err %v", d, err)
	}
	d, err = compileDomain(DomainSpec{Attr: "Age", Lo: 0, Width: 20, Bins: 4}, tbl)
	if err != nil || d.Size() != 4 {
		t.Fatalf("numeric: %v err %v", d, err)
	}
	d, err = compileDomain(DomainSpec{Attr: "City"}, tbl)
	if err != nil || d.Size() != 2 { // derived: {irvine, tustin}
		t.Fatalf("derived: %v err %v", d, err)
	}

	for i, spec := range []DomainSpec{
		{Attr: "Nope"},         // unknown attr
		{Attr: "Age", Bins: 4}, // missing width
		{Attr: "City", Keys: []string{"irvine", "irvine"}},          // duplicate keys
		{Attr: "Age", Lo: 0, Width: 10},                             // lo/width without bins: not silently derived
		{Attr: "City", Keys: []string{"irvine"}, Bins: 3, Width: 1}, // mixed shapes
		{Attr: "Age", Lo: 0, Width: 1e-6, Bins: 2_000_000_000},      // bins over MaxQueryBins
		{Attr: "Age", Lo: 0, Width: 1, Bins: -5},                    // negative bins
	} {
		if _, err := compileDomain(spec, tbl); err == nil {
			t.Errorf("case %d (%+v): expected a compile error", i, spec)
		}
	}

	// Deriving against an empty (all-sensitive) partition must fail
	// rather than panic downstream.
	empty := dataset.NewTable(tbl.Schema())
	if _, err := compileDomain(DomainSpec{Attr: "City"}, empty); err == nil {
		t.Error("empty derived domain: expected an error")
	}
}

// TestTwoDimBinProductCap checks that two individually-legal dimensions
// whose product exceeds MaxQueryBins are rejected before the output
// vector is allocated — bins are client-controlled, so this is the
// memory-DoS guard.
func TestTwoDimBinProductCap(t *testing.T) {
	tbl := testSchemaTable(t)
	srv := New(Config{})
	if err := srv.RegisterTable("d", tbl, dataset.AllNonSensitive()); err != nil {
		t.Fatal(err)
	}
	info, err := srv.OpenSession("", OpenSessionRequest{Dataset: "d", Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	half := DomainSpec{Attr: "Age", Lo: 0, Width: 1e-3, Bins: MaxQueryBins / 2}
	_, err = srv.Query("", info.ID, QueryRequest{Kind: KindHistogram, Eps: 0.5, Dims: []DomainSpec{half, half}})
	if err == nil {
		t.Fatal("expected the 2-D bin-product cap to reject the query")
	}
	if spent, _ := srv.SessionInfo("", info.ID); spent.Spent != 0 {
		t.Fatalf("rejected query charged %g", spent.Spent)
	}
}

// TestWriteJSON: a value that encodes goes out as its json.Marshal bytes
// plus a newline under the given status; one that cannot encode becomes
// a 500 with nothing of it written.
func TestWriteJSON(t *testing.T) {
	v := QueryResponse{Kind: KindSample, SampleCSV: "a:int\n1\n<&>\n"}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, v)
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusCreated || rec.Body.String() != string(want)+"\n" {
		t.Fatalf("HTTP %d %q, want %d %q", rec.Code, rec.Body.String(), http.StatusCreated, string(want)+"\n")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encoding response failed") {
		t.Fatalf("HTTP %d %q, want 500 encoding response failed", rec.Code, rec.Body.String())
	}
}
