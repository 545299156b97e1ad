package ledger

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"osdp/internal/core"
	"osdp/internal/dataset"
)

// Durable layout inside Config.Dir, written and replayed by
// internal/journal (which owns the format, torn-tail and snapshot-install
// rules):
//
//	wal.jsonl      append-only log, one JSON record per line
//	snapshot.json  periodic compaction of everything up to Seq

const (
	walFile      = "wal.jsonl"
	snapshotFile = "snapshot.json"
)

// record is the single WAL record shape; Kind selects which fields are
// meaningful. One flat struct keeps the append path free of interface
// dispatch and reflection surprises.
type record struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"` // "analyst" | "disable" | "budget" | "charge" | "refund"

	// analyst / disable
	ID      string `json:"id,omitempty"`
	Name    string `json:"name,omitempty"`
	KeyHash string `json:"key_sha256,omitempty"`
	// omitzero, not omitempty: omitempty never drops a struct, and this
	// field rides every hot-path charge record.
	Created    time.Time `json:"created,omitzero"`
	Disabled   bool      `json:"disabled,omitempty"`
	SessionCap int       `json:"session_cap,omitempty"`

	// budget / charge / refund
	Analyst string  `json:"analyst,omitempty"`
	Dataset string  `json:"dataset,omitempty"`
	Budget  float64 `json:"budget,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Policy  string  `json:"policy,omitempty"`
}

// snapshot is the compacted state: everything the WAL said up to and
// including Seq. Per-account spend is aggregated per policy name, so a
// snapshot's size is bounded by (analysts × datasets × policies), not by
// query count.
type snapshot struct {
	Seq      uint64        `json:"seq"`
	Analysts []snapAnalyst `json:"analysts"`
	Accounts []snapAccount `json:"accounts"`
}

type snapAnalyst struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	KeyHash    string    `json:"key_sha256"`
	Created    time.Time `json:"created"`
	Disabled   bool      `json:"disabled,omitempty"`
	SessionCap int       `json:"session_cap,omitempty"`
}

type snapAccount struct {
	Analyst string  `json:"analyst"`
	Dataset string  `json:"dataset"`
	Budget  float64 `json:"budget,omitempty"`
	// Explicit distinguishes an operator grant from the config default;
	// a default-budget account is re-resolved against the CURRENT
	// Config.DefaultBudget on open, so tightening the default applies
	// to every non-granted account regardless of snapshot timing.
	Explicit bool               `json:"explicit,omitempty"`
	Charges  uint64             `json:"charges"`
	Spent    map[string]float64 `json:"spent"` // policy name -> Σε
}

func recordSeq(r *record) *uint64 { return &r.Seq }

// restore loads snapshot.json's body into the empty in-memory state at
// Open and returns the seq it covers.
func (l *Ledger) restore(body []byte) (uint64, error) {
	var snap snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, err
	}
	for _, a := range snap.Analysts {
		l.addAnalystLocked(AnalystInfo{
			ID: a.ID, Name: a.Name, Created: a.Created,
			Disabled: a.Disabled, SessionCap: a.SessionCap,
		}, a.KeyHash)
	}
	for _, s := range snap.Accounts {
		// Only explicit grants replay their snapshotted budget; default
		// accounts re-resolve against the CURRENT config default, so an
		// operator tightening DefaultBudget reaches them on restart.
		budget := s.Budget
		if !s.Explicit {
			budget = l.cfg.DefaultBudget
		}
		acc := &account{
			budget:   budget,
			explicit: s.Explicit,
			acct:     core.NewAccountant(budget),
			charges:  s.Charges,
		}
		if err := restoreSpent(acc.acct, s.Spent); err != nil {
			return 0, fmt.Errorf("account %s/%s: %w", s.Analyst, s.Dataset, err)
		}
		l.accounts[acctKey{s.Analyst, s.Dataset}] = acc
	}
	return snap.Seq, nil
}

// restoreSpent seeds acct with per-policy aggregates, in name order so
// replay is reproducible.
func restoreSpent(acct *core.Accountant, spent map[string]float64) error {
	names := make([]string, 0, len(spent))
	for name := range spent {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := acct.RestoreSpend(replayedGuarantee(name, spent[name])); err != nil {
			return err
		}
	}
	return nil
}

// replayedGuarantee rebuilds a Guarantee from its durable form. Only the
// policy NAME round-trips through the log — predicates do not serialise
// — so replayed charges carry a name-preserving, all-sensitive
// placeholder predicate. That is the conservative direction for
// MinimumRelaxation composition: a placeholder never relaxes the other
// policies in the composite, and the ε arithmetic (what the budget
// check uses) is exact either way.
func replayedGuarantee(policyName string, eps float64) core.Guarantee {
	return core.Guarantee{Policy: dataset.NewPolicy(policyName, dataset.True()), Epsilon: eps}
}

// applyReplayed folds one WAL record into the in-memory state during
// Open. Charges use RestoreSpend, not Spend: a logged charge was
// acknowledged in a previous life and must be honoured even if the
// budget was lowered afterwards.
func (l *Ledger) applyReplayed(rec record) error {
	l.met.replayed.Inc()
	switch rec.Kind {
	case "analyst":
		l.addAnalystLocked(AnalystInfo{
			ID: rec.ID, Name: rec.Name, Created: rec.Created,
			SessionCap: rec.SessionCap,
		}, rec.KeyHash)
	case "disable":
		if st, ok := l.analysts[rec.ID]; ok {
			st.info.Disabled = rec.Disabled
		}
	case "budget":
		l.setBudgetLocked(rec.Analyst, rec.Dataset, rec.Budget)
	case "charge":
		acc := l.accountLocked(rec.Analyst, rec.Dataset)
		if err := acc.acct.RestoreSpend(replayedGuarantee(rec.Policy, rec.Eps)); err != nil {
			return fmt.Errorf("ledger: replaying charge seq %d: %w", rec.Seq, err)
		}
		acc.charges++
	case "refund":
		acc := l.accountLocked(rec.Analyst, rec.Dataset)
		// A refund that no longer matches is dropped: the charge stands,
		// which over-counts spend — the safe direction.
		_ = acc.acct.Refund(replayedGuarantee(rec.Policy, rec.Eps))
	default:
		return fmt.Errorf("ledger: unknown WAL record kind %q (seq %d)", rec.Kind, rec.Seq)
	}
	return nil
}

// compact is the journal's snapshot hook, run on its committer: under
// l.mu it captures the durable state as of the last assigned seq, then
// compacts the in-memory accountants to the same per-policy aggregates.
// Records still queued at this point are covered too — each writer
// applies its in-memory effect before appending — so replay skipping
// them is exact (if their batch later fails, the snapshot over-counts an
// unacknowledged record: the safe direction, never an under-count).
func (l *Ledger) compact() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := snapshot{Seq: l.j.Seq()}
	for id, st := range l.analysts {
		snap.Analysts = append(snap.Analysts, snapAnalyst{
			ID: id, Name: st.info.Name, KeyHash: st.keyHash,
			Created: st.info.Created, Disabled: st.info.Disabled,
			SessionCap: st.info.SessionCap,
		})
	}
	sort.Slice(snap.Analysts, func(i, j int) bool { return snap.Analysts[i].ID < snap.Analysts[j].ID })
	for key, acc := range l.accounts {
		spent := make(map[string]float64)
		for _, g := range acc.acct.Charges() {
			spent[g.Policy.Name()] += g.Epsilon
		}
		snap.Accounts = append(snap.Accounts, snapAccount{
			Analyst: key.analyst, Dataset: key.dataset,
			Budget: acc.budget, Explicit: acc.explicit,
			Charges: acc.charges, Spent: spent,
		})
		// Rebuilding each accountant from its aggregates keeps charge
		// lists from growing without bound. A refund for a charge folded
		// in here no longer matches and is dropped — the documented safe
		// direction. An account whose aggregate cannot be restored keeps
		// its full charge list.
		fresh := core.NewAccountant(acc.budget)
		if restoreSpent(fresh, spent) == nil {
			acc.acct = fresh
		}
	}
	sort.Slice(snap.Accounts, func(i, j int) bool {
		a, b := snap.Accounts[i], snap.Accounts[j]
		if a.Analyst != b.Analyst {
			return a.Analyst < b.Analyst
		}
		return a.Dataset < b.Dataset
	})
	return snap
}
