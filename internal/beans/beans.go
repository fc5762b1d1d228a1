// Package beans is the persistence layer of the CondorJ2 architecture: a
// container providing the J2EE/EJB services the paper's prototype got from
// JBoss — container-managed persistence (entity structs mapped 1:1 to
// tuples), container-managed transaction demarcation with deadlock retry,
// and pooled database connections via database/sql.
//
// An entity is a Go struct whose exported fields carry `bean` tags:
//
//	type Job struct {
//	    ID    int64  `bean:"id,pk,auto"`
//	    Owner string `bean:"owner"`
//	    State string `bean:"state"`
//	}
//
// The container maps it to a table (snake-cased struct name by default),
// and provides Find / Insert / Update / Delete against any *sql.Tx or
// *sql.DB. There is intentionally no caching tier: as in the paper, "the
// 'live' operational data resides in the database", and the subset of bean
// instances in memory at any instant is just whatever the in-flight
// requests materialized (§4.1 footnote 1).
package beans

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"condorj2/internal/sqldb"
)

// ErrNotFound is returned by Find when no tuple matches the key.
var ErrNotFound = errors.New("beans: entity not found")

// field is one mapped struct field.
type field struct {
	name  string // column name
	index int    // struct field index
	pk    bool
	auto  bool
	kind  scanKind
	slot  int // position among the entity's fields of the same kind
}

// scanKind is how a field is read back from a result row: through the
// sql.Null wrapper of its kind (a NULL column loads as the zero value), or
// — for any other type — straight into the field.
type scanKind uint8

const (
	scanInt scanKind = iota
	scanFloat
	scanString
	scanBool
	scanTime
	scanDirect
	numScanKinds
)

var timeType = reflect.TypeOf(time.Time{})

func scanKindOf(t reflect.Type) scanKind {
	switch t.Kind() {
	case reflect.Int64, reflect.Int, reflect.Int32:
		return scanInt
	case reflect.Float64:
		return scanFloat
	case reflect.String:
		return scanString
	case reflect.Bool:
		return scanBool
	}
	if t == timeType {
		return scanTime
	}
	return scanDirect
}

// Meta is the mapping of one entity type, with the statement texts every
// bean operation on it sends compiled once: the paper's "efficient
// transformations" between bean instances and tuples start with not
// re-deriving the SQL per call.
type Meta struct {
	// Table is the mapped table. It is fixed once the Meta is built (the
	// statement texts name it).
	Table  string
	typ    reflect.Type
	fields []field
	pks    []field
	// kinds counts the fields of each scanKind: the size of a scanBuf.
	kinds [numScanKinds]int
	// bufs lends Find and Each their scan targets (scanBuf).
	bufs *sync.Pool

	findSQL, updateSQL, deleteSQL string
	// selectSQL is "SELECT cols FROM table " — Select appends its suffix.
	selectSQL string
	// insertSQL[0] names every column, insertSQL[1] leaves the auto
	// columns to the database (their fields are zero).
	insertSQL [2]string
}

// compile derives the statement texts from the mapping and m.Table.
func (m *Meta) compile() {
	var cols, sets, where []string
	for _, f := range m.fields {
		cols = append(cols, f.name)
		if f.pk {
			where = append(where, f.name+" = ?")
		} else {
			sets = append(sets, f.name+" = ?")
		}
	}
	pk := strings.Join(where, " AND ")
	m.selectSQL = "SELECT " + strings.Join(cols, ", ") + " FROM " + m.Table + " "
	m.findSQL = m.selectSQL + "WHERE " + pk
	m.updateSQL = ""
	if len(sets) > 0 {
		m.updateSQL = "UPDATE " + m.Table + " SET " + strings.Join(sets, ", ") + " WHERE " + pk
	}
	m.deleteSQL = "DELETE FROM " + m.Table + " WHERE " + pk
	m.insertSQL[0] = m.insertText(func(*field) bool { return false })
	m.insertSQL[1] = m.insertText(func(f *field) bool { return f.auto })
}

// insertText renders the INSERT naming every column skip does not leave to
// the database.
func (m *Meta) insertText(skip func(*field) bool) string {
	var cols, marks []string
	for i := range m.fields {
		if f := &m.fields[i]; !skip(f) {
			cols = append(cols, f.name)
			marks = append(marks, "?")
		}
	}
	return "INSERT INTO " + m.Table + " (" + strings.Join(cols, ", ") + ") VALUES (" + strings.Join(marks, ", ") + ")"
}

var (
	metaMu    sync.RWMutex
	metaCache = make(map[reflect.Type]*Meta)
)

// TableNamer lets an entity override its table name; without it the table
// is the snake-cased struct name.
type TableNamer interface {
	TableName() string
}

// MetaOf computes (and caches) the mapping for an entity type. The sample
// may be a struct or pointer to struct.
func MetaOf(sample any) (*Meta, error) {
	t := reflect.TypeOf(sample)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("beans: entity must be a struct, got %s", t)
	}
	metaMu.RLock()
	m, ok := metaCache[t]
	metaMu.RUnlock()
	if ok {
		return m, nil
	}
	table := snakeCase(t.Name())
	if tn, ok := reflect.New(t).Interface().(TableNamer); ok {
		table = tn.TableName()
	}
	m = &Meta{Table: table, typ: t, bufs: new(sync.Pool)}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("bean")
		if tag == "-" || !sf.IsExported() {
			continue
		}
		f := field{name: snakeCase(sf.Name), index: i, kind: scanKindOf(sf.Type)}
		f.slot = m.kinds[f.kind]
		m.kinds[f.kind]++
		if tag != "" {
			parts := strings.Split(tag, ",")
			if parts[0] != "" {
				f.name = parts[0]
			}
			for _, p := range parts[1:] {
				switch p {
				case "pk":
					f.pk = true
				case "auto":
					f.auto = true
				case "table":
					// handled below via separate tag form
				}
			}
		}
		m.fields = append(m.fields, f)
		if f.pk {
			m.pks = append(m.pks, f)
		}
	}
	if len(m.fields) == 0 {
		return nil, fmt.Errorf("beans: %s has no mapped fields", t)
	}
	if len(m.pks) == 0 {
		return nil, fmt.Errorf("beans: %s has no primary key field (tag a field with `bean:\"col,pk\"`)", t)
	}
	m.compile()
	metaMu.Lock()
	metaCache[t] = m
	metaMu.Unlock()
	return m, nil
}

func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				prev := s[i-1]
				if prev >= 'a' && prev <= 'z' || prev >= '0' && prev <= '9' {
					b.WriteByte('_')
				}
			}
			b.WriteRune(r - 'A' + 'a')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Querier is the subset of database/sql shared by *sql.DB and *sql.Tx, so
// bean operations run equally inside or outside container transactions.
type Querier interface {
	Exec(query string, args ...any) (sql.Result, error)
	Query(query string, args ...any) (*sql.Rows, error)
	QueryRow(query string, args ...any) *sql.Row
}

// Insert persists a new entity. Auto fields with zero values receive their
// generated ids back.
func Insert(q Querier, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	// An auto field left zero is the database's to assign.
	unset := func(f *field) bool {
		fv := v.Field(f.index)
		return f.auto && fv.Kind() == reflect.Int64 && fv.Int() == 0
	}
	args := make([]any, 0, len(m.fields))
	var autoField *field
	autos := 0
	for i := range m.fields {
		f := &m.fields[i]
		if f.auto {
			autos++
		}
		if unset(f) {
			autoField = f
			continue
		}
		args = append(args, v.Field(f.index).Interface())
	}
	var query string
	switch len(m.fields) - len(args) {
	case 0:
		query = m.insertSQL[0]
	case autos:
		query = m.insertSQL[1]
	default: // several auto fields, only some of them set
		query = m.insertText(unset)
	}
	res, err := q.Exec(query, args...)
	if err != nil {
		return err
	}
	if autoField != nil {
		id, err := res.LastInsertId()
		if err == nil {
			v.Field(autoField.index).SetInt(id)
		}
	}
	return nil
}

// Find loads the entity whose primary key fields are already set.
func Find(q Querier, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	buf := m.borrowScanBuf()
	defer m.returnScanBuf(buf)
	buf.aim(m, v)
	row := q.QueryRow(m.findSQL, m.pkArgs(make([]any, 0, len(m.pks)), v)...)
	if err := row.Scan(buf.dest...); err != nil {
		if errors.Is(err, sql.ErrNoRows) {
			return ErrNotFound
		}
		return err
	}
	buf.assign(m, v)
	return nil
}

// Update writes all non-key fields of the entity back to its tuple.
func Update(q Querier, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	if m.updateSQL == "" {
		return nil // nothing but key fields
	}
	args := make([]any, 0, len(m.fields))
	for i := range m.fields {
		if f := &m.fields[i]; !f.pk {
			args = append(args, v.Field(f.index).Interface())
		}
	}
	res, err := q.Exec(m.updateSQL, m.pkArgs(args, v)...)
	if err != nil {
		return err
	}
	if n, err := res.RowsAffected(); err == nil && n == 0 {
		return ErrNotFound
	}
	return nil
}

// Delete removes the entity's tuple by primary key.
func Delete(q Querier, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	res, err := q.Exec(m.deleteSQL, m.pkArgs(make([]any, 0, len(m.pks)), v)...)
	if err != nil {
		return err
	}
	if n, err := res.RowsAffected(); err == nil && n == 0 {
		return ErrNotFound
	}
	return nil
}

// Select loads all entities matching an arbitrary suffix clause (e.g.
// "WHERE state = ? ORDER BY id LIMIT 10") into a slice of T.
func Select[T any](q Querier, suffix string, args ...any) ([]T, error) {
	var out []T
	err := Each(q, func(item *T) error {
		out = append(out, *item)
		return nil
	}, suffix, args...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Each calls fn for every entity matching the suffix clause, in result
// order, stopping at the first error. All rows are visited through one
// entity, loaded afresh for each call: fn may keep a copy of *item, not the
// pointer.
func Each[T any](q Querier, fn func(item *T) error, suffix string, args ...any) error {
	var item T
	m, err := MetaOf(item)
	if err != nil {
		return err
	}
	rows, err := q.Query(m.selectSQL+suffix, args...)
	if err != nil {
		return err
	}
	defer rows.Close()
	// One set of scan targets serves every row: Scan overwrites them and
	// assign copies them into the entity.
	buf := m.borrowScanBuf()
	defer m.returnScanBuf(buf)
	v := reflect.ValueOf(&item).Elem()
	for rows.Next() {
		var zero T
		item = zero
		buf.aim(m, v)
		if err := rows.Scan(buf.dest...); err != nil {
			return err
		}
		buf.assign(m, v)
		if err := fn(&item); err != nil {
			return err
		}
	}
	return rows.Err()
}

func metaAndValue(entity any) (*Meta, reflect.Value, error) {
	v := reflect.ValueOf(entity)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return nil, reflect.Value{}, fmt.Errorf("beans: entity must be a non-nil struct pointer, got %T", entity)
	}
	m, err := MetaOf(entity)
	if err != nil {
		return nil, reflect.Value{}, err
	}
	return m, v.Elem(), nil
}

// pkArgs appends the entity's primary key values, in the order the
// compiled WHERE clauses name them.
func (m *Meta) pkArgs(args []any, v reflect.Value) []any {
	for i := range m.pks {
		args = append(args, v.Field(m.pks[i].index).Interface())
	}
	return args
}

// scanBuf is one call's set of sql.Rows.Scan targets: a sql.Null wrapper
// per mapped field, grouped by kind — one array per kind the entity uses
// rather than one box per cell per row. Calls borrow theirs from the Meta
// (borrowScanBuf) and return it pointing at nothing of the caller's.
type scanBuf struct {
	dest    []any
	ints    []sql.NullInt64
	floats  []sql.NullFloat64
	strings []sql.NullString
	bools   []sql.NullBool
	times   []sql.NullTime
}

// borrowScanBuf takes a set of scan targets from the Meta's pool, building
// one when the pool is empty.
func (m *Meta) borrowScanBuf() *scanBuf {
	if b, _ := m.bufs.Get().(*scanBuf); b != nil {
		return b
	}
	return m.newScanBuf()
}

// returnScanBuf gives the targets back: those that were aimed into the
// caller's entity point nowhere, and no scanned string stays reachable.
func (m *Meta) returnScanBuf(b *scanBuf) {
	if m.kinds[scanDirect] > 0 {
		for i := range m.fields {
			if m.fields[i].kind == scanDirect {
				b.dest[i] = nil
			}
		}
	}
	clear(b.strings)
	m.bufs.Put(b)
}

func (m *Meta) newScanBuf() *scanBuf {
	b := &scanBuf{dest: make([]any, len(m.fields))}
	if n := m.kinds[scanInt]; n > 0 {
		b.ints = make([]sql.NullInt64, n)
	}
	if n := m.kinds[scanFloat]; n > 0 {
		b.floats = make([]sql.NullFloat64, n)
	}
	if n := m.kinds[scanString]; n > 0 {
		b.strings = make([]sql.NullString, n)
	}
	if n := m.kinds[scanBool]; n > 0 {
		b.bools = make([]sql.NullBool, n)
	}
	if n := m.kinds[scanTime]; n > 0 {
		b.times = make([]sql.NullTime, n)
	}
	for i := range m.fields {
		f := &m.fields[i]
		switch f.kind {
		case scanInt:
			b.dest[i] = &b.ints[f.slot]
		case scanFloat:
			b.dest[i] = &b.floats[f.slot]
		case scanString:
			b.dest[i] = &b.strings[f.slot]
		case scanBool:
			b.dest[i] = &b.bools[f.slot]
		case scanTime:
			b.dest[i] = &b.times[f.slot]
		}
	}
	return b
}

// aim points the targets of fields scanned in place at entity v.
func (b *scanBuf) aim(m *Meta, v reflect.Value) {
	if m.kinds[scanDirect] == 0 {
		return
	}
	for i := range m.fields {
		if f := &m.fields[i]; f.kind == scanDirect {
			b.dest[i] = v.Field(f.index).Addr().Interface()
		}
	}
}

// assign copies the scanned row into entity v; a NULL column leaves the
// wrapper, and so the field, zero.
func (b *scanBuf) assign(m *Meta, v reflect.Value) {
	for i := range m.fields {
		f := &m.fields[i]
		fv := v.Field(f.index)
		switch f.kind {
		case scanInt:
			fv.SetInt(b.ints[f.slot].Int64)
		case scanFloat:
			fv.SetFloat(b.floats[f.slot].Float64)
		case scanString:
			fv.SetString(b.strings[f.slot].String)
		case scanBool:
			fv.SetBool(b.bools[f.slot].Bool)
		case scanTime:
			*fv.Addr().Interface().(*time.Time) = b.times[f.slot].Time
		}
	}
}

// Container supplies container-managed transactions over a pooled
// database/sql handle — the application-server tier's hold on the database.
type Container struct {
	// DB is the pooled connection source.
	DB *sql.DB
}

// maxRetries bounds the deadlock retries of one InTx transaction.
const maxRetries = 10

// InTx runs fn inside a transaction under ctx, committing on success and
// rolling back on error. The context bounds the whole transaction: the
// driver threads it into the engine, so lock waits, scans, and the
// commit's durability wait are all cancelled when it fires, and
// database/sql rolls the transaction back. Deadlock victims are retried
// — the standard container behaviour the paper's entity beans relied on
// — but a cancelled or timed-out transaction is not: the caller stopped
// waiting, so rerunning the work would only burn the server.
func (c *Container) InTx(ctx context.Context, fn func(tx *sql.Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		tx, err := c.DB.BeginTx(ctx, nil)
		if err != nil {
			return err
		}
		err = fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				return nil
			}
		} else {
			tx.Rollback()
		}
		// The driver hands the engine's errors through database/sql as they
		// are, so the victim is known by its type, not by its text.
		if ctx.Err() != nil || !errors.Is(err, sqldb.ErrDeadlock) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("beans: transaction retries exhausted: %w", lastErr)
}

// InReadTx runs fn inside a read-only snapshot transaction under ctx:
// every query fn issues sees one consistent commit timestamp, takes no
// locks, and never blocks — or is blocked by — concurrent writers.
// Deadlock retry is unnecessary by construction. Writes inside fn fail.
func (c *Container) InReadTx(ctx context.Context, fn func(tx *sql.Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	tx, err := c.DB.BeginTx(ctx, &sql.TxOptions{ReadOnly: true})
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Commit()
}
