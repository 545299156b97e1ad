// Package ledger is the privacy-budget control plane: durable,
// concurrency-safe accounting of every analyst's cumulative ε spend per
// dataset. It closes the cross-session composition gap the serving
// layer shipped with — without identity, one client could launder
// unlimited ε through many sessions; with the ledger, all of an
// analyst's sessions over a dataset draw from ONE budget account, so
// the Theorem 3.2/3.3 composition bound holds across the analyst's
// whole transcript, not just per session.
//
// An analyst is a principal with an API key (stored hashed, SHA-256;
// the plaintext is returned exactly once at creation). A budget account
// is keyed by (analyst, dataset) and backed by a core.Accountant, so
// charge arithmetic — NaN guards, the float tolerance, concurrent
// arbitration — is the same calculus sessions use.
//
// Durability contract: a charge is acknowledged only after its record is
// durable in the write-ahead log, an internal/journal log (fsync'd
// unless Config.NoSync), so acknowledged spend survives crash and
// restart; the in-memory state is a cache over the log, never the other
// way around. A writer admits its record against the in-memory state
// under the mutex, appends it to the journal (which assigns its seq, so
// log order is admission order), releases the lock, and waits for the
// journal's group commit — N concurrent charges share one fsync, and no
// caller observes a nil return (or releases noise) before its own
// record is stable. The failure modes all err toward counting MORE
// spend, never less: a crash between WAL append and the noisy answer
// leaves the charge spent with no answer released; a failed commit
// undoes the in-memory spend of every charge it carried (records of an
// unacknowledged batch that did reach the disk replay as spent — an
// over-count, never an under-count) and makes the journal fail-stop
// until restart; a refund whose commit fails keeps the in-memory refund
// but replays as spent; a refund that can no longer be matched to its
// charge (e.g. across a snapshot compaction) is dropped and the charge
// stands.
//
// With Config.Dir empty the ledger runs in-memory: same semantics,
// nothing survives Close. Tests and demos use this mode.
package ledger

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"osdp/internal/core"
	"osdp/internal/dataset"
	"osdp/internal/journal"
	"osdp/internal/telemetry"
)

// Typed errors; the serving layer maps them onto HTTP statuses.
var (
	// ErrBadKey marks authentication with an unknown or malformed API key.
	ErrBadKey = errors.New("ledger: unknown API key")
	// ErrDisabled marks operations on a disabled analyst.
	ErrDisabled = errors.New("ledger: analyst disabled")
	// ErrUnknownAnalyst marks operations naming an analyst id that does
	// not exist.
	ErrUnknownAnalyst = errors.New("ledger: unknown analyst")
	// ErrClosed marks operations on a closed ledger.
	ErrClosed = errors.New("ledger: closed")
)

// Config tunes a Ledger.
type Config struct {
	// Dir is the durable state directory; empty means in-memory (nothing
	// survives Close — tests and demos only).
	Dir string
	// DefaultBudget is the ε budget a (analyst, dataset) account starts
	// with when no explicit grant exists. 0 means unlimited, which is
	// almost never what a production deployment wants.
	DefaultBudget float64
	// SessionCap is the default cap on an analyst's concurrently open
	// sessions (0 = unlimited); per-analyst caps override it. Enforced by
	// the serving layer, recorded here so it survives restarts.
	SessionCap int
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appends (default 4096). Smaller values bound replay time and WAL
	// size tighter at the cost of more rewrite work.
	SnapshotEvery int
	// NoSync skips the per-batch fsync. Throughput benchmarks and tests
	// use it; with it set, a crash can lose charges the OS had not yet
	// flushed (it still never resurrects refunded ones).
	NoSync bool
	// Telemetry, when non-nil, registers the ledger's metric series
	// (charge/refund/replay/compaction counters, WAL append and fsync
	// latency histograms) on the given registry. Nil disables
	// collection at zero cost.
	Telemetry *telemetry.Registry

	fs journal.FS // file-system seam for fault-injection tests; nil = the OS
}

// AnalystInfo is the public description of a principal. The API key is
// never part of it; only the creation call returns the plaintext key.
type AnalystInfo struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Created    time.Time `json:"created"`
	Disabled   bool      `json:"disabled,omitempty"`
	SessionCap int       `json:"session_cap,omitempty"` // 0 = server default
}

// AccountInfo reports one (analyst, dataset) budget account.
type AccountInfo struct {
	Analyst   string  `json:"analyst"`
	Dataset   string  `json:"dataset"`
	Budget    float64 `json:"budget"` // 0 = unlimited
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"` // 0 when unlimited
	Charges   uint64  `json:"charges"`
	Guarantee string  `json:"guarantee"`
}

type acctKey struct{ analyst, dataset string }

type account struct {
	budget   float64
	explicit bool // budget came from an explicit grant, not DefaultBudget
	acct     *core.Accountant
	charges  uint64
}

type analystState struct {
	info    AnalystInfo
	keyHash string
}

// Ledger is the control plane. One mutex guards the in-memory state, and
// writers append their journal record while holding it, so the durable
// log order always matches the order charges were admitted — the
// property replay correctness rests on. The durable write happens
// OUTSIDE the mutex, on the journal's committer: reads (Authenticate on
// every request) never queue behind a charge's fsync, and concurrent
// charges share one.
type Ledger struct {
	cfg Config
	j   *journal.Journal[record]

	mu       sync.Mutex
	analysts map[string]*analystState
	byKey    map[string]string // sha256 hex of API key -> analyst id
	accounts map[acctKey]*account
	closed   bool

	met ledgerMetrics
}

// Open opens (or creates) a ledger. With cfg.Dir set it replays the
// snapshot and WAL so spent budget survives restarts; with cfg.Dir
// empty it is purely in-memory.
func Open(cfg Config) (*Ledger, error) {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 4096
	}
	l := &Ledger{
		cfg:      cfg,
		analysts: make(map[string]*analystState),
		byKey:    make(map[string]string),
		accounts: make(map[acctKey]*account),
		// Built before replay so replayed-record counts are observed.
		met: newLedgerMetrics(cfg.Telemetry),
	}
	j, err := journal.Open(journal.Config[record]{
		Dir:           cfg.Dir,
		Log:           walFile,
		NoSync:        cfg.NoSync,
		Seq:           recordSeq,
		Apply:         l.applyReplayed,
		Snapshot:      snapshotFile,
		SnapshotEvery: cfg.SnapshotEvery,
		Restore:       l.restore,
		Compact:       l.compact,
		FS:            cfg.fs,
		Metrics:       l.met.journal,
	})
	if err != nil {
		return nil, err
	}
	l.j = j
	return l, nil
}

// Close commits what was admitted before it (those writers still get a
// real durability verdict) and closes the WAL. Further operations fail
// with ErrClosed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true // no new records can be appended past this point
	l.mu.Unlock()
	return l.j.Close()
}

// Durable reports whether the ledger persists to disk.
func (l *Ledger) Durable() bool { return l.cfg.Dir != "" }

// await blocks until the record at seq is durable and returns the commit
// verdict (immediately nil in memory mode). Callers must NOT hold l.mu:
// the journal's snapshot hook takes it.
func (l *Ledger) await(seq uint64) error {
	if !l.Durable() {
		return nil
	}
	start := time.Now()
	err := l.j.Wait(seq)
	l.met.commitWait.ObserveDuration(time.Since(start))
	return err
}

// CreateAnalyst mints a principal and returns its info plus the
// plaintext API key — the ONLY time the key is available; the ledger
// stores a SHA-256 hash. sessionCap overrides the config default when
// > 0.
func (l *Ledger) CreateAnalyst(name string, sessionCap int) (AnalystInfo, string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return AnalystInfo{}, "", fmt.Errorf("ledger: analyst name must not be empty")
	}
	if sessionCap < 0 {
		return AnalystInfo{}, "", fmt.Errorf("ledger: session cap %d must be non-negative", sessionCap)
	}
	// The id is public and the key is secret, so they must come from
	// independent randomness — an id derived from key bytes would leak a
	// prefix of the credential.
	var raw [26]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return AnalystInfo{}, "", fmt.Errorf("ledger: generating API key: %w", err)
	}
	key := "osdp_" + hex.EncodeToString(raw[:20])
	hash := hashKey(key)
	id := "a-" + hex.EncodeToString(raw[20:])

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return AnalystInfo{}, "", ErrClosed
	}
	if _, dup := l.analysts[id]; dup {
		l.mu.Unlock()
		return AnalystInfo{}, "", fmt.Errorf("ledger: analyst id collision, retry")
	}
	info := AnalystInfo{ID: id, Name: name, Created: time.Now().UTC(), SessionCap: sessionCap}
	// Mutate in-memory state BEFORE appending: a snapshot covering this
	// record's seq must already contain it, or the subsequent WAL
	// truncation would drop the analyst. Same ordering rule as Charge;
	// every WAL writer follows it.
	l.addAnalystLocked(info, hash)
	seq := l.j.Append(record{
		Kind: "analyst", ID: id, Name: name, KeyHash: hash,
		Created: info.Created, SessionCap: sessionCap,
	})
	l.mu.Unlock()
	if err := l.await(seq); err != nil {
		l.mu.Lock()
		delete(l.analysts, id)
		delete(l.byKey, hash)
		l.mu.Unlock()
		return AnalystInfo{}, "", err
	}
	return info, key, nil
}

// addAnalystLocked registers a principal in the in-memory state.
func (l *Ledger) addAnalystLocked(info AnalystInfo, keyHash string) {
	l.analysts[info.ID] = &analystState{info: info, keyHash: keyHash}
	l.byKey[keyHash] = info.ID
}

// Authenticate resolves an API key to its analyst. Unknown keys get
// ErrBadKey; disabled analysts get ErrDisabled.
func (l *Ledger) Authenticate(key string) (AnalystInfo, error) {
	hash := hashKey(key)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return AnalystInfo{}, ErrClosed
	}
	id, ok := l.byKey[hash]
	if !ok {
		return AnalystInfo{}, ErrBadKey
	}
	st := l.analysts[id]
	if st.info.Disabled {
		return AnalystInfo{}, fmt.Errorf("%w: %s", ErrDisabled, id)
	}
	return st.info, nil
}

// Analyst returns a principal's info by id.
func (l *Ledger) Analyst(id string) (AnalystInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.analysts[id]
	if !ok {
		return AnalystInfo{}, fmt.Errorf("%w: %q", ErrUnknownAnalyst, id)
	}
	return st.info, nil
}

// Analysts lists principals sorted by id.
func (l *Ledger) Analysts() []AnalystInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AnalystInfo, 0, len(l.analysts))
	for _, st := range l.analysts {
		out = append(out, st.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetDisabled flips a principal's disabled flag. Disabling revokes the
// key's access immediately; spent budget is retained forever.
func (l *Ledger) SetDisabled(id string, disabled bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	st, ok := l.analysts[id]
	if !ok {
		l.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownAnalyst, id)
	}
	if st.info.Disabled == disabled {
		l.mu.Unlock()
		return nil
	}
	// In-memory first: a snapshot covering this record must carry the
	// flag (losing a revocation record would re-arm a revoked key).
	st.info.Disabled = disabled
	seq := l.j.Append(record{Kind: "disable", ID: id, Disabled: disabled})
	l.mu.Unlock()
	if err := l.await(seq); err != nil {
		l.mu.Lock()
		st.info.Disabled = !disabled
		l.mu.Unlock()
		return err
	}
	return nil
}

// SetBudget grants (analyst, dataset) an explicit ε budget, replacing
// the default. Lowering the budget below the spent total is allowed —
// the account simply refuses all further charges; the spend history is
// untouched.
func (l *Ledger) SetBudget(analyst, ds string, budget float64) error {
	if math.IsNaN(budget) || math.IsInf(budget, 0) || budget < 0 {
		return fmt.Errorf("ledger: budget %g must be finite and non-negative", budget)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if _, ok := l.analysts[analyst]; !ok {
		l.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownAnalyst, analyst)
	}
	// In-memory first (see CreateAnalyst); roll the budget back if the
	// grant fails to persist. The rollback rebuilds around the PREVIOUS
	// budget rather than restoring a struct copy: charges admitted while
	// this call awaited durability must survive the rollback, or live
	// memory would under-count them.
	key := acctKey{analyst, ds}
	var prevBudget float64
	var prevExplicit bool
	prev, had := l.accounts[key]
	if had {
		prevBudget, prevExplicit = prev.budget, prev.explicit
	}
	l.setBudgetLocked(analyst, ds, budget)
	seq := l.j.Append(record{Kind: "budget", Analyst: analyst, Dataset: ds, Budget: budget})
	l.mu.Unlock()
	if err := l.await(seq); err != nil {
		l.mu.Lock()
		if had {
			l.setBudgetLocked(analyst, ds, prevBudget)
			l.accounts[key].explicit = prevExplicit
		} else {
			// The grant created the account; demote it back to the config
			// default (it may have taken charges meanwhile, so it cannot
			// simply be deleted).
			l.setBudgetLocked(analyst, ds, l.cfg.DefaultBudget)
			l.accounts[key].explicit = false
		}
		l.mu.Unlock()
		return err
	}
	return nil
}

// setBudgetLocked rebuilds the account's accountant around the new
// budget, carrying spend over via RestoreSpend (which permits spent >
// budget).
func (l *Ledger) setBudgetLocked(analyst, ds string, budget float64) {
	key := acctKey{analyst, ds}
	acc, ok := l.accounts[key]
	if !ok {
		l.accounts[key] = &account{budget: budget, explicit: true, acct: core.NewAccountant(budget)}
		return
	}
	fresh := core.NewAccountant(budget)
	for _, g := range acc.acct.Charges() {
		// Guarantees carry live policies here (not just names), so the
		// composite survives the rebuild exactly.
		if err := fresh.RestoreSpend(g); err != nil {
			// Unreachable: recorded charges are always valid ε.
			panic(fmt.Sprintf("ledger: rebuilding account %s/%s: %v", analyst, ds, err))
		}
	}
	acc.budget, acc.explicit, acc.acct = budget, true, fresh
}

// accountLocked fetches or creates the (analyst, dataset) account.
func (l *Ledger) accountLocked(analyst, ds string) *account {
	key := acctKey{analyst, ds}
	acc, ok := l.accounts[key]
	if !ok {
		acc = &account{budget: l.cfg.DefaultBudget, acct: core.NewAccountant(l.cfg.DefaultBudget)}
		l.accounts[key] = acc
	}
	return acc
}

// Charge spends g.Epsilon from the analyst's account for ds. The charge
// is admitted against the budget FIRST and becomes durable before
// Charge returns; callers must not release any noise before a nil
// return. Budget rejections wrap core.ErrBudgetExceeded.
//
// An optional request trace may be passed as the trailing argument; on
// durable ledgers the time spent parked in the group-commit queue is
// then recorded as a "ledger.commit_wait" span.
func (l *Ledger) Charge(analyst, ds string, g core.Guarantee, trace ...*telemetry.Trace) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	st, ok := l.analysts[analyst]
	if !ok {
		l.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownAnalyst, analyst)
	}
	if st.info.Disabled {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDisabled, analyst)
	}
	acc := l.accountLocked(analyst, ds)
	if err := acc.acct.Spend(g); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("ledger: account %s/%s: %w", analyst, ds, err)
	}
	// Count before appending: a snapshot covering this record must
	// include the charge it describes.
	acc.charges++
	seq := l.j.Append(record{
		Kind: "charge", Analyst: analyst, Dataset: ds,
		Eps: g.Epsilon, Policy: g.Policy.Name(),
	})
	l.mu.Unlock()
	var sp telemetry.SpanEnd
	if l.Durable() && len(trace) > 0 {
		sp = trace[0].StartSpan("ledger.commit_wait")
	}
	err := l.await(seq)
	sp.End()
	if err != nil {
		// Not durable => not admitted: undo the in-memory spend. (If the
		// record did reach the disk before the batch failed, replay will
		// over-count it — never under.)
		l.mu.Lock()
		acc.charges--
		_ = acc.acct.Refund(g)
		l.mu.Unlock()
		return err
	}
	l.met.charges.Inc()
	return nil
}

// Refund returns a charge admitted by Charge, for use ONLY when the
// mechanism failed before drawing any noise. If the in-memory charge no
// longer matches (e.g. compacted away), the charge stands and Refund
// reports the mismatch; if only the durable append fails, the in-memory
// refund stands and replay will over-count — both err toward more
// recorded spend, never less.
func (l *Ledger) Refund(analyst, ds string, g core.Guarantee) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	acc, ok := l.accounts[acctKey{analyst, ds}]
	if !ok {
		l.mu.Unlock()
		return fmt.Errorf("ledger: no account %s/%s to refund", analyst, ds)
	}
	if err := acc.acct.Refund(g); err != nil {
		l.mu.Unlock()
		return err
	}
	seq := l.j.Append(record{
		Kind: "refund", Analyst: analyst, Dataset: ds,
		Eps: g.Epsilon, Policy: g.Policy.Name(),
	})
	l.mu.Unlock()
	err := l.await(seq)
	if err == nil {
		// Counted only after durability: a refund whose batch failed must
		// not inflate the metric (the in-memory refund stands regardless —
		// replay then over-counts, never under).
		l.met.refunds.Inc()
	}
	return err
}

// Account reports one (analyst, dataset) account; an untouched pair
// reports the budget it WOULD have (default or explicit grant) with
// zero spend.
func (l *Ledger) Account(analyst, ds string) (AccountInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.analysts[analyst]; !ok {
		return AccountInfo{}, fmt.Errorf("%w: %q", ErrUnknownAnalyst, analyst)
	}
	acc, ok := l.accounts[acctKey{analyst, ds}]
	if !ok {
		return AccountInfo{
			Analyst: analyst, Dataset: ds,
			Budget: l.cfg.DefaultBudget, Remaining: l.cfg.DefaultBudget,
			Guarantee: core.Guarantee{Policy: dataset.AllSensitive()}.String(),
		}, nil
	}
	return accountInfo(analyst, ds, acc), nil
}

// Accounts lists every touched account, sorted by (analyst, dataset).
func (l *Ledger) Accounts() []AccountInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AccountInfo, 0, len(l.accounts))
	for key, acc := range l.accounts {
		out = append(out, accountInfo(key.analyst, key.dataset, acc))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Analyst != out[j].Analyst {
			return out[i].Analyst < out[j].Analyst
		}
		return out[i].Dataset < out[j].Dataset
	})
	return out
}

// TotalSpent sums ε across all accounts — the coarse health number
// /stats reports.
func (l *Ledger) TotalSpent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total float64
	for _, acc := range l.accounts {
		total += acc.acct.Spent()
	}
	return total
}

// Counts reports how many analysts and touched accounts exist.
func (l *Ledger) Counts() (analysts, accounts int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.analysts), len(l.accounts)
}

// DefaultSessionCap returns the config default for per-analyst
// concurrent sessions (0 = unlimited).
func (l *Ledger) DefaultSessionCap() int { return l.cfg.SessionCap }

func accountInfo(analyst, ds string, acc *account) AccountInfo {
	spent, composite := acc.acct.Snapshot()
	remaining := acc.budget - spent
	if acc.budget == 0 || remaining < 0 {
		remaining = 0
	}
	return AccountInfo{
		Analyst: analyst, Dataset: ds,
		Budget: acc.budget, Spent: spent, Remaining: remaining,
		Charges: acc.charges, Guarantee: composite.String(),
	}
}

func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
