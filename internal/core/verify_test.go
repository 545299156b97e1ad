package core

import (
	"errors"
	"math"
	"testing"

	"osdp/internal/dataset"
	"osdp/internal/noise"
)

func verifyUniverse(s *dataset.Schema) []dataset.Record {
	return []dataset.Record{
		rec(s, 100, 8),  // sensitive
		rec(s, 101, 15), // sensitive
		rec(s, 102, 25), // non-sensitive
		rec(s, 103, 60), // non-sensitive
	}
}

// The verifier should certify OsdpRR at its declared ε across every
// neighbor pair of a small database.
func TestVerifyOSDPCertifiesRR(t *testing.T) {
	s := testSchema()
	base := testDB(s, 10, 30)
	const eps = 1.0
	res := VerifyOSDP(NewRR(minorsPolicy(), eps), base, minorsPolicy(), verifyUniverse(s),
		VerifyConfig{Trials: 120000}, noise.NewSource(1))
	if res.Pairs == 0 {
		t.Fatal("no neighbor pairs exercised")
	}
	if res.MaxLogRatio > eps*1.06 {
		t.Errorf("empirical loss %v exceeds ε=%v (worst: %s)", res.MaxLogRatio, eps, res.WorstPair)
	}
}

// And it should flag the exclusion-attack-vulnerable baseline with an
// unbounded ratio.
func TestVerifyOSDPFlagsFullRelease(t *testing.T) {
	s := testSchema()
	base := testDB(s, 10, 30)
	res := VerifyOSDP(NewFullRelease(minorsPolicy()), base, minorsPolicy(), verifyUniverse(s),
		VerifyConfig{Trials: 3000}, noise.NewSource(2))
	if !math.IsInf(res.MaxLogRatio, 1) {
		t.Errorf("FullRelease passed verification with loss %v", res.MaxLogRatio)
	}
}

// A database with no sensitive records has no one-sided neighbors: the
// verifier must report zero pairs (and hence zero loss).
func TestVerifyOSDPNoSensitiveRecords(t *testing.T) {
	s := testSchema()
	base := testDB(s, 30, 45)
	res := VerifyOSDP(NewRR(minorsPolicy(), 1), base, minorsPolicy(), verifyUniverse(s),
		VerifyConfig{Trials: 100}, noise.NewSource(3))
	if res.Pairs != 0 || res.MaxLogRatio != 0 {
		t.Errorf("expected vacuous result, got %+v", res)
	}
}

// Higher ε must never report lower empirical loss than a much smaller ε on
// the same scenario (sanity of the measurement itself).
func TestVerifyOSDPLossScalesWithEps(t *testing.T) {
	s := testSchema()
	base := testDB(s, 10, 30)
	cfg := VerifyConfig{Trials: 120000}
	low := VerifyOSDP(NewRR(minorsPolicy(), 0.3), base, minorsPolicy(), verifyUniverse(s), cfg, noise.NewSource(4))
	high := VerifyOSDP(NewRR(minorsPolicy(), 2.0), base, minorsPolicy(), verifyUniverse(s), cfg, noise.NewSource(5))
	if high.MaxLogRatio <= low.MaxLogRatio {
		t.Errorf("loss at ε=2 (%v) not above loss at ε=0.3 (%v)", high.MaxLogRatio, low.MaxLogRatio)
	}
	// Each should sit near its ε.
	if math.Abs(low.MaxLogRatio-0.3) > 0.06 {
		t.Errorf("ε=0.3 loss = %v", low.MaxLogRatio)
	}
	if math.Abs(high.MaxLogRatio-2.0) > 0.4 {
		t.Errorf("ε=2 loss = %v", high.MaxLogRatio)
	}
}

func TestVerifyOSDPPanicsOnBadTrials(t *testing.T) {
	s := testSchema()
	defer func() {
		if recover() == nil {
			t.Fatal("Trials=0 did not panic")
		}
	}()
	VerifyOSDP(NewRR(minorsPolicy(), 1), testDB(s, 10), minorsPolicy(), nil,
		VerifyConfig{}, noise.NewSource(1))
}

func TestMultisetEventCanonical(t *testing.T) {
	s := testSchema()
	a := testDB(s)
	a.Append(rec(s, 1, 30))
	a.Append(rec(s, 2, 40))
	b := testDB(s)
	b.Append(rec(s, 2, 40))
	b.Append(rec(s, 1, 30))
	if multisetEvent(a) != multisetEvent(b) {
		t.Error("multiset event depends on record order")
	}
	c := testDB(s)
	c.Append(rec(s, 1, 30))
	if multisetEvent(a) == multisetEvent(c) {
		t.Error("different releases share an event key")
	}
}

// servedMech runs VerifyOSDP through the Session query path the server
// serves: each Release opens an unlimited session over the (neighbour)
// table and answers one query on it. drawEps is the ε the query runs
// at, while the verifier holds it to the declared eps. The two mutation
// controls are drawEps = 2·eps and leakAll, which hands the session the
// whole table as its non-sensitive partition, as releasing from s.db
// instead of s.ns would.
type servedMech struct {
	policy  dataset.Policy
	eps     float64
	drawEps float64
	leakAll bool
	query   func(s *Session, eps float64) (*dataset.Table, error)
}

func (m servedMech) Release(db *dataset.Table, src noise.Source) *dataset.Table {
	sess := NewSession(db, m.policy, 0, src)
	if m.leakAll {
		sess = NewSessionWithPartition(db, db, m.policy, 0, src)
	}
	out, err := m.query(sess, m.drawEps)
	if err != nil {
		panic(err)
	}
	return out
}

func (m servedMech) Guarantee() Guarantee { return Guarantee{Policy: m.policy, Epsilon: m.eps} }
func (m servedMech) Name() string         { return "served" }

// servedSample is Session.Sample as a verifier query.
func servedSample(s *Session, eps float64) (*dataset.Table, error) { return s.Sample(eps) }

// servedQuantile is Session.Quantile of Age as a verifier query. The
// released value becomes a one-record table, an empty sample an empty
// one, so the event is the value or "empty".
func servedQuantile(s *Session, eps float64) (*dataset.Table, error) {
	out := dataset.NewTable(dataset.NewSchema(dataset.Field{Name: "median", Kind: dataset.KindInt}))
	v, err := s.Quantile("Age", 0.5, eps)
	if errors.Is(err, ErrEmptySample) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	out.AppendValues(dataset.Int(int64(v)))
	return out, nil
}

// verifyServed runs VerifyOSDP on mech over the 4-record universe and
// returns the loss with the slack its trial count allows: every event
// the verifier scores has probability ≥ minProb in one world and, under
// a correct mechanism, ≥ minProb·e^(−ε) in the other, so 4.5 standard
// deviations of the estimated log ratio bound the sampling error.
func verifyServed(mech servedMech, trials int, seed int64) (VerifyResult, float64) {
	const minProb = 0.05
	s := testSchema()
	res := VerifyOSDP(mech, testDB(s, 10, 30), minorsPolicy(), verifyUniverse(s),
		VerifyConfig{Trials: trials, MinEventProb: minProb}, noise.NewSource(seed))
	slack := 4.5 * math.Sqrt((1+math.Exp(mech.eps))/(minProb*float64(trials)))
	return res, slack
}

// The served Sample and Quantile are (P, ε)-OSDP as measured by the
// verifier, not only the RR mechanism they are built from; releasing
// from the whole table, or drawing at 2ε while charging ε, is flagged.
func TestVerifyOSDPServedSessionQueries(t *testing.T) {
	const eps, trials = 1.0, 40000
	policy := minorsPolicy()
	for _, q := range []struct {
		name  string
		query func(*Session, float64) (*dataset.Table, error)
	}{{"Sample", servedSample}, {"Quantile", servedQuantile}} {
		res, slack := verifyServed(servedMech{policy: policy, eps: eps, drawEps: eps, query: q.query}, trials, 11)
		if res.Pairs == 0 {
			t.Fatalf("%s: no neighbour pairs exercised", q.name)
		}
		if res.MaxLogRatio > eps+slack {
			t.Errorf("%s: empirical loss %v exceeds ε=%v + slack %.3f (worst: %s)", q.name, res.MaxLogRatio, eps, slack, res.WorstPair)
		}

		leak, _ := verifyServed(servedMech{policy: policy, eps: eps, drawEps: eps, leakAll: true, query: q.query}, trials/10, 12)
		if !math.IsInf(leak.MaxLogRatio, 1) {
			t.Errorf("%s releasing from the whole table passed with loss %v", q.name, leak.MaxLogRatio)
		}
		over, slack := verifyServed(servedMech{policy: policy, eps: eps, drawEps: 2 * eps, query: q.query}, trials, 13)
		if over.MaxLogRatio <= eps+slack {
			t.Errorf("%s drawing at 2ε passed with loss %v ≤ ε + slack %.3f", q.name, over.MaxLogRatio, eps+slack)
		}
	}
}
