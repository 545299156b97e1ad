package core

import (
	"math"
	"strings"
	"testing"

	"osdp/internal/dataset"
	"osdp/internal/noise"
)

// constSource always returns the same uniform value — handy for forcing
// every keep gap to one length.
type constSource float64

func (c constSource) Float64() float64 { return float64(c) }

func smallNumericTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	schema := dataset.NewSchema(dataset.Field{Name: "X", Kind: dataset.KindInt})
	tab := dataset.NewTable(schema)
	for i := 0; i < n; i++ {
		tab.AppendValues(dataset.Int(int64(i)))
	}
	return tab
}

// TestQuantileChargesOnEmptySample pins the budget semantics documented on
// Session.Quantile: when the OsdpRR sample keeps zero records the call
// fails, but the ε charge stays spent. The draws are an observable run of
// OsdpRR, so refunding would allow free retries outside the accounted
// transcript.
func TestQuantileChargesOnEmptySample(t *testing.T) {
	db := smallNumericTable(t, 50)
	// Float64() == 1−1e-12 makes every keep gap ⌊−ln(1e-12)/0.5⌋ = 55
	// records, past the 50-record table, so the sample is
	// deterministically empty.
	sess := NewSession(db, dataset.AllNonSensitive(), 2.0, constSource(1-1e-12))

	const eps = 0.5
	_, err := sess.Quantile("X", 0.5, eps)
	if err == nil {
		t.Fatal("expected empty-sample error from Quantile")
	}
	if !strings.Contains(err.Error(), "empty") {
		t.Fatalf("expected empty-sample error, got: %v", err)
	}
	if got := sess.Spent(); math.Abs(got-eps) > 1e-12 {
		t.Fatalf("Spent() = %g after failed Quantile, want %g (charge must not be refunded)", got, eps)
	}
	if got := sess.Remaining(); math.Abs(got-(2.0-eps)) > 1e-12 {
		t.Fatalf("Remaining() = %g, want %g", got, 2.0-eps)
	}

	// A successful retry pays again: the two runs compose to 2·eps.
	// Float64() == 0.1 makes every keep gap ⌊−ln(0.9)/0.5⌋ = 0: every
	// record is kept.
	sess2 := &Session{}
	*sess2 = *sess
	sess2.src = constSource(0.1)
	if _, err := sess2.Quantile("X", 0.5, eps); err != nil {
		t.Fatalf("retry with keeping source failed: %v", err)
	}
	if got := sess2.Spent(); math.Abs(got-2*eps) > 1e-12 {
		t.Fatalf("Spent() = %g after retry, want %g", got, 2*eps)
	}
}

// TestQuantileRejectedWhenBudgetExhausted checks the complementary
// property: a charge that would overdraw is refused before any keep
// draw, so nothing is spent and nothing is leaked.
func TestQuantileRejectedWhenBudgetExhausted(t *testing.T) {
	db := smallNumericTable(t, 10)
	sess := NewSession(db, dataset.AllNonSensitive(), 1.0, noise.NewSource(1))
	if _, err := sess.Quantile("X", 0.5, 0.8); err != nil {
		t.Fatalf("first quantile failed: %v", err)
	}
	if _, err := sess.Quantile("X", 0.5, 0.5); err == nil {
		t.Fatal("expected over-budget quantile to be rejected")
	}
	if got := sess.Spent(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Spent() = %g after rejected charge, want 0.8", got)
	}
}

// TestQuantileNonNumericRejectedBeforeCharge: a quantile over a bool or
// string attribute is an error, and like every rejected request it
// leaves the budget untouched.
func TestQuantileNonNumericRejectedBeforeCharge(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Field{Name: "X", Kind: dataset.KindInt},
		dataset.Field{Name: "B", Kind: dataset.KindBool},
		dataset.Field{Name: "S", Kind: dataset.KindString},
	)
	tab := dataset.NewTable(schema)
	for i := 0; i < 20; i++ {
		tab.AppendValues(dataset.Int(int64(i)), dataset.Bool(i%2 == 0), dataset.Str("7"))
	}
	sess := NewSession(tab, dataset.AllNonSensitive(), 2.0, noise.NewSource(3))
	for _, attr := range []string{"B", "S"} {
		if v, err := sess.Quantile(attr, 0.5, 0.5); err == nil || !strings.Contains(err.Error(), "numeric") {
			t.Errorf("Quantile(%q) = %v, %v; want a non-numeric attribute error", attr, v, err)
		}
	}
	if got := sess.Spent(); got != 0 {
		t.Fatalf("Spent() = %g after rejected quantiles, want 0", got)
	}
	if _, err := sess.Quantile("X", 0.5, 0.5); err != nil {
		t.Fatalf("numeric quantile failed: %v", err)
	}
}
