// Package beans is the persistence layer of the CondorJ2 architecture: a
// container providing the J2EE/EJB services the paper's prototype got from
// JBoss — container-managed persistence (entity structs mapped 1:1 to
// tuples) and container-managed transaction demarcation with deadlock
// retry.
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
// and provides Insert / Find / Update / Delete / Select / Each over two
// transports, with one copy of the mapping between them:
//
//   - the engine's own transactions (*sqldb.Tx, under Engine.InTx): what
//     the application server runs on. Arguments are bound from the entity's
//     fields straight into engine values, and results are read cell by cell
//     through the statement's row references into the fields — nothing is
//     boxed and no row is materialized;
//   - database/sql (*sql.Tx under Container.InTx, or a *sql.DB): the edge,
//     for tools and measurements that hold a pooled handle. Values cross
//     database/sql's interfaces boxed, and are loaded by the same rules.
//
// There is intentionally no caching tier: as in the paper, "the 'live'
// operational data resides in the database", and the subset of bean
// instances in memory at any instant is just whatever the in-flight
// requests materialized (§4.1 footnote 1).
package beans

import (
	"database/sql"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condorj2/internal/sqldb"
)

// ErrNotFound is returned by Find when no tuple matches the key, and by
// Update and Delete when the key names no tuple.
var ErrNotFound = errors.New("beans: entity not found")

// ErrFieldType is wrapped by the error a load returns when a column's
// value cannot be stored in its field's type.
var ErrFieldType = errors.New("beans: column value does not fit the field")

// field is one mapped struct field.
type field struct {
	name  string // column name
	index int    // struct field index
	pk    bool
	auto  bool
	kind  kind
	// exact: the field's type is one sqldb.FromGo names, so it is bound by
	// kind without boxing; any other type is bound through FromGo itself,
	// with the same result.
	exact bool
}

// kind is how a field is bound and loaded, by its type's reflect.Kind.
type kind uint8

const (
	kindInt kind = iota
	kindFloat
	kindString
	kindBool
	kindTime
	kindBytes
	// kindOther is bound through sqldb.FromGo and loads nothing.
	kindOther
)

var (
	timeType = reflect.TypeFor[time.Time]()
	// exactTypes are the types sqldb.FromGo names that a kind binds.
	exactTypes = map[reflect.Type]bool{}
)

func init() {
	for _, t := range []reflect.Type{
		reflect.TypeFor[int](), reflect.TypeFor[int8](), reflect.TypeFor[int16](), reflect.TypeFor[int32](),
		reflect.TypeFor[int64](), reflect.TypeFor[float32](), reflect.TypeFor[float64](),
		reflect.TypeFor[string](), reflect.TypeFor[[]byte](), reflect.TypeFor[bool](), timeType,
	} {
		exactTypes[t] = true
	}
}

func kindOf(t reflect.Type) kind {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return kindInt
	case reflect.Float32, reflect.Float64:
		return kindFloat
	case reflect.String:
		return kindString
	case reflect.Bool:
		return kindBool
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return kindBytes
		}
	}
	if t == timeType {
		return kindTime
	}
	return kindOther
}

// bind converts the field's value fv into its statement argument: the
// value sqldb.FromGo(fv.Interface()) gives, without the interface.
func (f *field) bind(fv reflect.Value) (sqldb.Value, error) {
	if !f.exact {
		return sqldb.FromGo(fv.Interface())
	}
	switch f.kind {
	case kindInt:
		return sqldb.NewInt(fv.Int()), nil
	case kindFloat:
		return sqldb.NewFloat(fv.Float()), nil
	case kindString:
		return sqldb.NewText(fv.String()), nil
	case kindBool:
		return sqldb.NewBool(fv.Bool()), nil
	case kindTime:
		return sqldb.NewTime(*fv.Addr().Interface().(*time.Time)), nil
	default: // kindBytes
		return sqldb.NewText(string(fv.Bytes())), nil
	}
}

// load stores column value v in the field fv: NULL as the field's zero
// value, anything else only where its type fits the field's (an INTEGER
// fits a float field too, TEXT a []byte one).
func (f *field) load(fv reflect.Value, v sqldb.Value) error {
	if v.IsNull() {
		fv.SetZero()
		return nil
	}
	t := v.Type()
	switch {
	case f.kind == kindInt && t == sqldb.Int:
		fv.SetInt(v.Int64())
	case f.kind == kindFloat && (t == sqldb.Float || t == sqldb.Int):
		fv.SetFloat(v.Float64())
	case f.kind == kindString && t == sqldb.Text:
		fv.SetString(v.Text())
	case f.kind == kindBool && t == sqldb.Bool:
		fv.SetBool(v.Bool())
	case f.kind == kindTime && t == sqldb.Time:
		*fv.Addr().Interface().(*time.Time) = v.TimeValue()
	case f.kind == kindBytes && t == sqldb.Text:
		fv.SetBytes([]byte(v.Text()))
	default:
		return fmt.Errorf("%w: column %s holds %s, field is %s", ErrFieldType, f.name, t, fv.Type())
	}
	return nil
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

	findSQL, updateSQL, deleteSQL string
	// selectSQL is "SELECT cols FROM table " — Select appends its suffix.
	selectSQL string
	// selects holds selectSQL+suffix for the suffixes Select and Each were
	// called with, up to maxSelectTexts of them (selectText); selectMu
	// serializes the copies that add one.
	selects  atomic.Pointer[[]keptSelect]
	selectMu sync.Mutex
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
	m = &Meta{Table: table, typ: t}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("bean")
		if tag == "-" || !sf.IsExported() {
			continue
		}
		f := field{name: snakeCase(sf.Name), index: i, kind: kindOf(sf.Type), exact: exactTypes[sf.Type]}
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

// Querier is what a bean operation runs on: one of the engine's own
// transactions (the native transport), or a database/sql transaction or
// pool (the edge). Inside or outside a container transaction alike.
type Querier interface {
	*sqldb.Tx | *sql.Tx | *sql.DB
}

// Insert persists a new entity. Auto fields with zero values receive their
// generated ids back.
func Insert[Q Querier](q Q, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	// An auto field left zero is the database's to assign.
	unset := func(f *field) bool {
		fv := v.Field(f.index)
		return f.auto && fv.Kind() == reflect.Int64 && fv.Int() == 0
	}
	a := borrowArgs()
	defer a.release()
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
		if err := a.bind(f, v); err != nil {
			return err
		}
	}
	var query string
	switch len(m.fields) - len(a.vals) {
	case 0:
		query = m.insertSQL[0]
	case autos:
		query = m.insertSQL[1]
	default: // several auto fields, only some of them set
		query = m.insertText(unset)
	}
	res, err := transportOf(q).exec(query, a.vals)
	if err != nil {
		return err
	}
	if autoField != nil {
		v.Field(autoField.index).SetInt(res.LastInsertID)
	}
	return nil
}

// Find loads the entity whose primary key fields are already set.
func Find[Q Querier](q Q, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	a := borrowArgs()
	defer a.release()
	if err := a.bindKey(m, v); err != nil {
		return err
	}
	cur, err := transportOf(q).query(m.findSQL, a.vals)
	if err != nil {
		return err
	}
	if cur.next() {
		err = m.load(cur, v)
	} else {
		err = ErrNotFound
	}
	if cerr := cur.close(); cerr != nil {
		return cerr
	}
	return err
}

// Update writes all non-key fields of the entity back to its tuple.
func Update[Q Querier](q Q, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	if m.updateSQL == "" {
		return nil // nothing but key fields
	}
	a := borrowArgs()
	defer a.release()
	for i := range m.fields {
		if f := &m.fields[i]; !f.pk {
			if err := a.bind(f, v); err != nil {
				return err
			}
		}
	}
	if err := a.bindKey(m, v); err != nil {
		return err
	}
	return affected(transportOf(q).exec(m.updateSQL, a.vals))
}

// Delete removes the entity's tuple by primary key.
func Delete[Q Querier](q Q, entity any) error {
	m, v, err := metaAndValue(entity)
	if err != nil {
		return err
	}
	a := borrowArgs()
	defer a.release()
	if err := a.bindKey(m, v); err != nil {
		return err
	}
	return affected(transportOf(q).exec(m.deleteSQL, a.vals))
}

// affected turns a write that matched no tuple into ErrNotFound.
func affected(res sqldb.Result, err error) error {
	if err == nil && res.RowsAffected == 0 {
		return ErrNotFound
	}
	return err
}

// Select loads all entities matching an arbitrary suffix clause (e.g.
// "WHERE state = ? ORDER BY id LIMIT 10") into a slice of T, in result
// order; nil when none match. On the engine's own transactions the result
// says how many rows it holds, so the slice is allocated once at that
// length; through database/sql it grows as the rows arrive. Each row is
// loaded in place, into its element. The slice is the caller's: it
// outlives the transaction, as the result it was read from does not.
func Select[T any, Q Querier](q Q, suffix string, args ...any) ([]T, error) {
	m, cur, err := selectRows[T](q, suffix, args)
	if err != nil {
		return nil, err
	}
	var out []T
	if n := cur.len(); n > 0 {
		out = make([]T, 0, n)
	}
	for err == nil && cur.next() {
		var zero T
		out = append(out, zero)
		err = m.load(cur, reflect.ValueOf(&out[len(out)-1]).Elem())
	}
	if cerr := cur.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Each calls fn for every entity matching the suffix clause, in result
// order, stopping at the first error. All rows are visited through one
// entity, loaded afresh for each call: fn may keep a copy of *item, not the
// pointer. fn may run statements of its own on q: on the engine's own
// transactions the result being visited is the transaction's until it
// ends, and no later statement of it touches that result.
func Each[T any, Q Querier](q Q, fn func(item *T) error, suffix string, args ...any) error {
	m, cur, err := selectRows[T](q, suffix, args)
	if err != nil {
		return err
	}
	var item T
	v := reflect.ValueOf(&item).Elem()
	for err == nil && cur.next() {
		var zero T
		item = zero
		if err = m.load(cur, v); err == nil {
			err = fn(&item)
		}
	}
	if cerr := cur.close(); err == nil {
		err = cerr
	}
	return err
}

// maxSelectTexts bounds the SELECT texts a Meta keeps. Every caller passes
// a literal suffix, a handful per entity type; past the bound a text is
// built per call.
const maxSelectTexts = 16

// keptSelect is one SELECT text a Meta keeps: selectSQL with suffix.
type keptSelect struct{ suffix, sql string }

// selectText is T's SELECT with suffix, built once per suffix: a lookup in
// a list that is replaced whole, never written in place, so a reader needs
// no lock. Two first calls with one suffix may both add it, which costs a
// slot and nothing else.
func (m *Meta) selectText(suffix string) string {
	var texts []keptSelect
	if p := m.selects.Load(); p != nil {
		texts = *p
	}
	for _, t := range texts {
		if t.suffix == suffix {
			return t.sql
		}
	}
	sql := m.selectSQL + suffix
	m.selectMu.Lock()
	defer m.selectMu.Unlock()
	if p := m.selects.Load(); p != nil {
		texts = *p
	}
	if len(texts) < maxSelectTexts {
		kept := append(slices.Clip(texts), keptSelect{suffix, sql})
		m.selects.Store(&kept)
	}
	return sql
}

// selectRows runs T's SELECT with the suffix clause on q, its arguments
// bound as engine values for the call.
func selectRows[T any, Q Querier](q Q, suffix string, args []any) (*Meta, cursor, error) {
	m, err := MetaOf((*T)(nil))
	if err != nil {
		return nil, nil, err
	}
	a := borrowArgs()
	defer a.release()
	for _, x := range args {
		val, err := sqldb.FromGo(x)
		if err != nil {
			return nil, nil, err
		}
		a.vals = append(a.vals, val)
	}
	cur, err := transportOf(q).query(m.selectText(suffix), a.vals)
	return m, cur, err
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

// load reads the cursor's current row into entity v, column i into field i.
func (m *Meta) load(cur cursor, v reflect.Value) error {
	for i := range m.fields {
		f := &m.fields[i]
		if err := f.load(v.Field(f.index), cur.col(i)); err != nil {
			return err
		}
	}
	return nil
}

// args is one bean call's statement arguments as engine values, lent by
// argPool for the call: a transport reads them and keeps nothing.
type args struct{ vals []sqldb.Value }

var argPool = sync.Pool{New: func() any { return new(args) }}

func borrowArgs() *args { return argPool.Get().(*args) }

// release empties the arguments, so no bound string stays reachable from
// the pool, and gives them back.
func (a *args) release() {
	clear(a.vals)
	a.vals = a.vals[:0]
	if cap(a.vals) <= 64 {
		argPool.Put(a)
	}
}

// bind appends field f of entity v.
func (a *args) bind(f *field, v reflect.Value) error {
	val, err := f.bind(v.Field(f.index))
	if err != nil {
		return err
	}
	a.vals = append(a.vals, val)
	return nil
}

// bindKey appends the entity's primary key values, in the order the
// compiled WHERE clauses name them.
func (a *args) bindKey(m *Meta, v reflect.Value) error {
	for i := range m.pks {
		if err := a.bind(&m.pks[i], v); err != nil {
			return err
		}
	}
	return nil
}
