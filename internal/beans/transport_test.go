package beans_test

import (
	"context"
	"database/sql"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"condorj2/internal/beans"
	"condorj2/internal/core"
	"condorj2/internal/sqldb"
)

// hostSlot exercises a composite primary key beside the core entities.
type hostSlot struct {
	Host string `bean:"host,pk"`
	Slot int64  `bean:"slot,pk"`
	Val  string `bean:"val"`
}

func (hostSlot) TableName() string { return "host_slots" }

// vmMachineAsInt maps vms.machine, a TEXT column, to an integer field.
type vmMachineAsInt struct {
	ID      int64 `bean:"id,pk,auto"`
	Machine int64 `bean:"machine"`
}

func (vmMachineAsInt) TableName() string { return "vms" }

// errClass names the class of a bean operation's outcome.
func errClass(err error) string {
	var uv *sqldb.UniqueViolationError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, beans.ErrNotFound):
		return "not found"
	case errors.Is(err, beans.ErrFieldType):
		return "field type"
	case errors.As(err, &uv):
		return "unique violation"
	}
	return "other: " + err.Error()
}

// step is one bean operation of the scenario, its outcome's class and what
// it loaded.
type step struct {
	op, class string
	got       any
}

// transportScenario runs every bean operation on the core entities, each in
// its own container transaction (inTx), and records what each answered.
func transportScenario[Q beans.Querier](t *testing.T, inTx func(func(Q) error) error) []step {
	t.Helper()
	var steps []step
	do := func(op string, fn func(q Q) (any, error)) {
		var got any
		err := inTx(func(q Q) error {
			var err error
			got, err = fn(q)
			return err
		})
		steps = append(steps, step{op: op, class: errClass(err), got: got})
	}
	find := func(entity any) func(q Q) (any, error) {
		return func(q Q) (any, error) { return entity, beans.Find(q, entity) }
	}

	submitted := time.Date(2006, 10, 1, 9, 30, 15, 123456000, time.FixedZone("CEST", 2*3600))
	job := &core.Job{Owner: "alice", State: core.JobIdle, LengthSec: 60, Priority: 0.5, SubmittedAt: submitted}
	do("insert with an auto id", func(q Q) (any, error) {
		err := beans.Insert(q, job)
		return job.ID, err
	})
	do("find", find(&core.Job{ID: job.ID}))
	do("find of a missing key", find(&core.Job{ID: 999}))
	// Row 100 was inserted with its nullable columns NULL.
	do("find of NULL columns", find(&core.Job{ID: 100}))
	do("update", func(q Q) (any, error) {
		j := &core.Job{ID: job.ID}
		if err := beans.Find(q, j); err != nil {
			return nil, err
		}
		j.State, j.MatchedAt = core.JobMatched, submitted.Add(time.Minute)
		return nil, beans.Update(q, j)
	})
	do("find after update", find(&core.Job{ID: job.ID}))
	do("update of a missing key", func(q Q) (any, error) { return nil, beans.Update(q, &core.Job{ID: 999}) })

	for seq := int64(0); seq < 3; seq++ {
		do("insert vm", func(q Q) (any, error) {
			return nil, beans.Insert(q, &core.VM{Machine: "node-1", Seq: seq, State: core.VMIdle, MemoryMB: 512})
		})
	}
	do("insert of a taken unique key", func(q Q) (any, error) {
		return nil, beans.Insert(q, &core.VM{Machine: "node-1", Seq: 0, State: core.VMIdle})
	})
	do("select", func(q Q) (any, error) {
		return beans.Select[core.VM](q, "WHERE machine = ? ORDER BY seq DESC", "node-1")
	})
	do("each", func(q Q) (any, error) {
		var seen []core.Job
		err := beans.Each(q, func(j *core.Job) error {
			seen = append(seen, *j)
			return nil
		}, "ORDER BY id")
		return seen, err
	})

	// Select at the three sizes that take different paths: no row (nil,
	// not an empty slice), one, and more than any first guess of a
	// growing slice, in result order.
	do("insert a rack of vms", func(q Q) (any, error) {
		for seq := int64(0); seq < 200; seq++ {
			if err := beans.Insert(q, &core.VM{Machine: "rack", Seq: seq, State: core.VMIdle, MemoryMB: 256}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	do("select of 0 rows", func(q Q) (any, error) {
		return beans.Select[core.VM](q, "WHERE machine = ?", "nowhere")
	})
	do("select of 1 row", func(q Q) (any, error) {
		return beans.Select[core.VM](q, "WHERE machine = ? AND seq = ?", "rack", 17)
	})
	do("select of 200 rows", func(q Q) (any, error) {
		return beans.Select[core.VM](q, "WHERE machine = ? ORDER BY seq DESC", "rack")
	})

	do("insert composite key", func(q Q) (any, error) { return nil, beans.Insert(q, &hostSlot{Host: "h1", Slot: 2, Val: "a"}) })
	do("update composite key", func(q Q) (any, error) { return nil, beans.Update(q, &hostSlot{Host: "h1", Slot: 2, Val: "b"}) })
	do("find composite key", find(&hostSlot{Host: "h1", Slot: 2}))
	do("delete composite key", func(q Q) (any, error) { return nil, beans.Delete(q, &hostSlot{Host: "h1", Slot: 2}) })
	do("find deleted composite key", find(&hostSlot{Host: "h1", Slot: 2}))

	do("find into a mistyped field", find(&vmMachineAsInt{ID: 1}))
	do("select into a mistyped field", func(q Q) (any, error) { return beans.Select[vmMachineAsInt](q, "") })

	do("delete", func(q Q) (any, error) { return nil, beans.Delete(q, &core.Job{ID: job.ID}) })
	do("find deleted", find(&core.Job{ID: job.ID}))
	do("delete of a missing key", func(q Q) (any, error) { return nil, beans.Delete(q, &core.Job{ID: job.ID}) })
	return steps
}

// transportEngine is a fresh in-memory engine holding the CAS schema, a
// composite-key table, and one job whose nullable columns are NULL.
func transportEngine(t *testing.T) *sqldb.DB {
	t.Helper()
	engine := sqldb.New()
	t.Cleanup(func() { engine.Close() })
	for _, ddl := range slices.Concat(core.Schema, []string{
		`CREATE TABLE host_slots (host TEXT, slot INTEGER, val TEXT, PRIMARY KEY (host, slot))`,
		`INSERT INTO jobs (id, owner, length_sec) VALUES (100, 'nulls', 0)`,
	}) {
		if _, err := engine.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return engine
}

// TestBeanTransportsAgree: the engine's own transactions and database/sql's
// run every bean operation to equal entities and equal error classes.
func TestBeanTransportsAgree(t *testing.T) {
	ctx := context.Background()
	native := &beans.Engine{DB: transportEngine(t)}
	viaNative := transportScenario(t, func(fn func(*sqldb.Tx) error) error { return native.InTx(ctx, fn) })
	pool := sql.OpenDB(transportEngine(t).Connector())
	defer pool.Close()
	edge := &beans.Container{DB: pool}
	viaSQL := transportScenario(t, func(fn func(*sql.Tx) error) error { return edge.InTx(ctx, fn) })

	if len(viaNative) != len(viaSQL) {
		t.Fatalf("%d steps natively, %d through database/sql", len(viaNative), len(viaSQL))
	}
	for i, n := range viaNative {
		if s := viaSQL[i]; n.class != s.class || !reflect.DeepEqual(n.got, s.got) {
			t.Errorf("%s: engine %s %+v, database/sql %s %+v", n.op, n.class, n.got, s.class, s.got)
		}
	}

	// What the scenario must have seen, on either transport.
	want := map[string]string{
		"find of a missing key": "not found", "update of a missing key": "not found",
		"find deleted composite key": "not found", "find deleted": "not found", "delete of a missing key": "not found",
		"insert of a taken unique key": "unique violation",
		"find into a mistyped field":   "field type", "select into a mistyped field": "field type",
	}
	byOp := map[string]step{}
	for _, s := range viaNative {
		byOp[s.op] = s
		class := want[s.op]
		if class == "" {
			class = "ok"
		}
		if s.class != class {
			t.Errorf("%s: %s, want %s", s.op, s.class, class)
		}
	}
	if id := byOp["insert with an auto id"].got.(int64); id == 0 {
		t.Error("Insert left the auto id zero")
	}
	if found := byOp["find"].got.(*core.Job); !found.SubmittedAt.Equal(time.Date(2006, 10, 1, 7, 30, 15, 123456000, time.UTC)) ||
		found.SubmittedAt.Location() != time.UTC {
		t.Errorf("time round trip: %v", found.SubmittedAt)
	}
	if nulls := byOp["find of NULL columns"].got.(*core.Job); *nulls != (core.Job{ID: 100, Owner: "nulls", State: core.JobIdle, Priority: 0.5}) {
		t.Errorf("NULL columns loaded as %+v, want zero values", *nulls)
	}
	if updated := byOp["find after update"].got.(*core.Job); updated.State != core.JobMatched || updated.MatchedAt.IsZero() {
		t.Errorf("after update: %+v", *updated)
	}
	if vms := byOp["select"].got.([]core.VM); len(vms) != 3 || vms[0].Seq != 2 || vms[0].ID == 0 {
		t.Errorf("select: %+v", vms)
	}
	if vms := byOp["select of 0 rows"].got.([]core.VM); vms != nil {
		t.Errorf("select of 0 rows: %#v, want nil", vms)
	}
	if vms := byOp["select of 1 row"].got.([]core.VM); len(vms) != 1 || vms[0].Seq != 17 || vms[0].Machine != "rack" {
		t.Errorf("select of 1 row: %+v", vms)
	}
	if vms := byOp["select of 200 rows"].got.([]core.VM); len(vms) != 200 {
		t.Errorf("select of 200 rows: %d rows", len(vms))
	} else {
		for i, vm := range vms {
			if vm.Seq != int64(199-i) || vm.MemoryMB != 256 || vm.ID == 0 {
				t.Errorf("select of 200 rows: row %d is %+v, want seq %d", i, vm, 199-i)
				break
			}
		}
	}
	if jobs := byOp["each"].got.([]core.Job); len(jobs) != 2 {
		t.Errorf("each: %+v", jobs)
	}
	if slot := byOp["find composite key"].got.(*hostSlot); slot.Val != "b" {
		t.Errorf("composite key: %+v", *slot)
	}
}
