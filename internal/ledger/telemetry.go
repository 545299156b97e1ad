package ledger

import (
	"osdp/internal/journal"
	"osdp/internal/telemetry"
)

// ledgerMetrics bundles the ledger's instruments. The zero value (every
// field nil) is the disabled state — telemetry metrics are nil-safe, so
// call sites update unconditionally.
type ledgerMetrics struct {
	charges    *telemetry.Counter
	refunds    *telemetry.Counter
	replayed   *telemetry.Counter
	commitWait *telemetry.Histogram
	journal    journal.Metrics // WAL commit and compaction instruments
}

// newLedgerMetrics registers the ledger series on r (nil r disables).
func newLedgerMetrics(r *telemetry.Registry) ledgerMetrics {
	if r == nil {
		return ledgerMetrics{}
	}
	return ledgerMetrics{
		charges: r.NewCounter("osdp_ledger_charges_total",
			"Budget charges acknowledged (durable before acknowledgement when the ledger has a directory)."),
		refunds: r.NewCounter("osdp_ledger_refunds_total",
			"Charges refunded after a mechanism failed before drawing noise."),
		replayed: r.NewCounter("osdp_ledger_replayed_records_total",
			"WAL records replayed during Open, after snapshot restore."),
		journal: journal.Metrics{
			Snapshots: r.NewCounter("osdp_ledger_compactions_total",
				"Snapshot compactions of the WAL."),
			Append: r.NewHistogram("osdp_ledger_wal_append_seconds",
				"Latency of one WAL record append, including fsync.", nil),
			Fsync: r.NewHistogram("osdp_ledger_wal_fsync_seconds",
				"Latency of the fsync portion of a WAL append.", nil),
			Batch: r.NewHistogram("osdp_ledger_fsync_batch_records",
				"Records per committed group-commit WAL batch (one fsync each).",
				[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		},
		commitWait: r.NewHistogram("osdp_ledger_group_commit_wait_seconds",
			"Time a durable write waits from enqueue to batch durability.", nil),
	}
}
