// Package core implements CondorJ2's Application Server (the CAS) — the
// paper's primary contribution. All operational state (users, jobs,
// machines, virtual machines, matches, runs, configuration, history) lives
// as tuples in the central relational database; the CAS's "most basic
// system function is to transform HTTP requests into SQL statements"
// (§4.2.3). The package is layered exactly as Figure 4 describes:
//
//	web site + web services  (website.go, webservice.go)   ← external interfaces
//	application logic layer  (service.go, scheduler.go)    ← coarse services
//	persistence layer        (entities.go + internal/beans) ← fine-grained beans
//	database                 (internal/sqldb, on its own transactions)
package core

import (
	"fmt"

	"condorj2/internal/sqldb"
)

// Schema statements create the operational store. One tuple per entity
// bean instance; indexes cover the hot paths (heartbeat lookups by machine
// and VM, scheduler scans by state).
var Schema = []string{
	`CREATE TABLE IF NOT EXISTS users (
		name TEXT PRIMARY KEY,
		priority FLOAT NOT NULL DEFAULT 0.5,
		created_at TIMESTAMP
	)`,
	`CREATE TABLE IF NOT EXISTS workflows (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		owner TEXT NOT NULL,
		created_at TIMESTAMP
	)`,
	`CREATE TABLE IF NOT EXISTS jobs (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		owner TEXT NOT NULL,
		workflow_id INTEGER,
		state TEXT NOT NULL DEFAULT 'idle',
		length_sec INTEGER NOT NULL,
		min_memory_mb INTEGER NOT NULL DEFAULT 0,
		priority FLOAT NOT NULL DEFAULT 0.5,
		depends_on INTEGER,
		submitted_at TIMESTAMP,
		matched_at TIMESTAMP,
		started_at TIMESTAMP
	)`,
	`CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, id)`,
	// Covers ScheduleCycle's job selection (WHERE state = ? ORDER BY
	// priority DESC, id LIMIT ?): a reverse index range scan reads just the
	// top-priority prefix instead of scanning and sorting every idle job.
	`CREATE INDEX IF NOT EXISTS jobs_state_priority ON jobs (state, priority, id)`,
	`CREATE INDEX IF NOT EXISTS jobs_depends ON jobs (depends_on)`,
	`CREATE TABLE IF NOT EXISTS machines (
		name TEXT PRIMARY KEY,
		state TEXT NOT NULL DEFAULT 'up',
		arch TEXT,
		opsys TEXT,
		total_memory_mb INTEGER NOT NULL DEFAULT 0,
		vm_count INTEGER NOT NULL DEFAULT 1,
		booted_at TIMESTAMP,
		last_heartbeat TIMESTAMP
	)`,
	`CREATE TABLE IF NOT EXISTS vms (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		machine TEXT NOT NULL,
		seq INTEGER NOT NULL,
		state TEXT NOT NULL DEFAULT 'idle',
		memory_mb INTEGER NOT NULL DEFAULT 0,
		UNIQUE (machine, seq)
	)`,
	`CREATE INDEX IF NOT EXISTS vms_state ON vms (state, id)`,
	`CREATE TABLE IF NOT EXISTS matches (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		job_id INTEGER NOT NULL,
		vm_id INTEGER NOT NULL,
		created_at TIMESTAMP,
		UNIQUE (job_id),
		UNIQUE (vm_id)
	)`,
	`CREATE TABLE IF NOT EXISTS runs (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		job_id INTEGER NOT NULL,
		vm_id INTEGER NOT NULL,
		started_at TIMESTAMP,
		UNIQUE (job_id),
		UNIQUE (vm_id)
	)`,
	`CREATE TABLE IF NOT EXISTS job_history (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		job_id INTEGER NOT NULL,
		owner TEXT NOT NULL,
		machine TEXT,
		vm_seq INTEGER,
		length_sec INTEGER,
		submitted_at TIMESTAMP,
		started_at TIMESTAMP,
		completed_at TIMESTAMP,
		exit_code INTEGER,
		outcome TEXT
	)`,
	`CREATE INDEX IF NOT EXISTS job_history_owner ON job_history (owner)`,
	`CREATE TABLE IF NOT EXISTS machine_history (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		machine TEXT NOT NULL,
		attr TEXT NOT NULL,
		value TEXT,
		recorded_at TIMESTAMP
	)`,
	`CREATE INDEX IF NOT EXISTS machine_history_machine ON machine_history (machine)`,
	`CREATE TABLE IF NOT EXISTS drops (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		machine TEXT NOT NULL,
		vm_seq INTEGER NOT NULL,
		job_id INTEGER NOT NULL,
		reason TEXT,
		at TIMESTAMP
	)`,
	`CREATE TABLE IF NOT EXISTS accounting (
		owner TEXT PRIMARY KEY,
		completed_jobs INTEGER NOT NULL DEFAULT 0,
		dropped_jobs INTEGER NOT NULL DEFAULT 0,
		total_runtime_sec INTEGER NOT NULL DEFAULT 0
	)`,
	// Durable idempotency-key dedup store (wire-path fault tolerance): a
	// mutating action's reply is inserted here in the same transaction as
	// its effects, so "did this key already run?" and "what did it answer?"
	// are one WAL-recovered fact. A retried key replays the stored reply
	// instead of re-executing; the payload is the reply packed (wire.Pack),
	// opaque to SQL. Rows age out via reply_retention_sec.
	`CREATE TABLE IF NOT EXISTS wire_replies (
		key TEXT PRIMARY KEY,
		action TEXT NOT NULL,
		payload TEXT,
		created_at TIMESTAMP
	)`,
	// Replication lease (one row, id = 1): the current leader's term,
	// identity, and last renewal. The row is ordinary replicated data —
	// lease renewals ship to followers through the WAL like any other
	// write, so a follower detects leader death purely by watching this
	// row go stale in its own database. Terms are fencing tokens: a
	// promotion bumps the term, and repl.Ship calls carrying an older term
	// are rejected (split-brain prevention).
	`CREATE TABLE IF NOT EXISTS repl_lease (
		id INTEGER PRIMARY KEY,
		term INTEGER NOT NULL,
		holder TEXT NOT NULL,
		renewed_at_ms INTEGER NOT NULL,
		ttl_ms INTEGER NOT NULL
	)`,
	`CREATE TABLE IF NOT EXISTS config (
		name TEXT PRIMARY KEY,
		value TEXT NOT NULL,
		updated_at TIMESTAMP
	)`,
	`CREATE TABLE IF NOT EXISTS config_history (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		value TEXT NOT NULL,
		changed_at TIMESTAMP
	)`,
	// Provenance extension (paper §6 future work): data sets and the
	// executions that produced them.
	`CREATE TABLE IF NOT EXISTS datasets (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		version INTEGER NOT NULL DEFAULT 1,
		produced_by INTEGER,
		created_at TIMESTAMP,
		UNIQUE (name, version)
	)`,
	`CREATE TABLE IF NOT EXISTS job_inputs (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		job_id INTEGER NOT NULL,
		dataset_id INTEGER NOT NULL,
		UNIQUE (job_id, dataset_id)
	)`,
	`CREATE INDEX IF NOT EXISTS job_inputs_job ON job_inputs (job_id)`,
	`CREATE TABLE IF NOT EXISTS executables (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		version TEXT NOT NULL,
		UNIQUE (name, version)
	)`,
	`CREATE TABLE IF NOT EXISTS job_executables (
		job_id INTEGER PRIMARY KEY,
		executable_id INTEGER NOT NULL
	)`,
}

// DefaultConfig is the one list of the service's config keys and their
// defaults: Bootstrap seeds the table from it, and a value the settings
// load (loadSettings) finds absent or not an integer falls back on it.
// Values are kept in the database (not process flags) so administrators
// change behaviour with an UPDATE — the paper's "configure system
// behavior from anywhere". A slice, not a map: Bootstrap seeds the rows in
// this order on every run, so their rids and log records do not depend on
// map iteration.
var DefaultConfig = []struct{ Name, Value string }{
	{"schedule_interval_sec", "1"},
	{"schedule_batch", "500"},
	{"heartbeat_interval_sec", "60"},
	{"reply_retention_sec", "3600"},
}

// Bootstrap creates the schema and seeds configuration defaults, one
// autocommit statement at a time.
func Bootstrap(db *sqldb.DB) error {
	for _, stmt := range Schema {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("core: bootstrap: %w", err)
		}
	}
	for _, c := range DefaultConfig {
		row, err := db.QueryRow(`SELECT value FROM config WHERE name = ?`, c.Name)
		if err != nil {
			return fmt.Errorf("core: read config %s: %w", c.Name, err)
		}
		if row == nil {
			if _, err := db.Exec(`INSERT INTO config (name, value) VALUES (?, ?)`, c.Name, c.Value); err != nil {
				return fmt.Errorf("core: seed config %s: %w", c.Name, err)
			}
		}
	}
	return nil
}
