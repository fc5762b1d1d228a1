package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

const walPath = "cas.wal"

// fixture is one in-process CAS assembled exactly as cmd/condorj2d
// assembles it (sqldb.Open with SyncGroup → core.New → RecoverInFlight →
// SetAdmission), on the modelled device, with the scheduler left to the
// harness so cycles happen at fixed op counts instead of on a ticker.
type fixture struct {
	dev *device
	eng *sqldb.DB
	cas *core.CAS

	srv     *http.Server
	srvDone chan struct{}
	url     string

	// How long each assembly step took (recovery_s is their sum on a
	// crash image; the per-step values are per-layer metrics).
	openDur, newDur, recoverDur time.Duration
}

// openFixture opens (or recovers) a CAS from mem.
func openFixture(sp *spec, mem *sqldb.MemVFS, tr *tracer) (*fixture, error) {
	fx := &fixture{dev: newDevice(mem, walPath, sp.SyncDelay, tr)}
	ctx := context.Background()

	s := tr.begin("sqldb.Open", 0, 0)
	t0 := time.Now()
	eng, err := sqldb.Open(sqldb.Options{
		VFS:       fx.dev,
		Path:      walPath,
		Sync:      sqldb.SyncGroup,
		PoolPages: sp.PoolPages,
	})
	fx.openDur = time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("opening database: %w", err)
	}
	fx.eng = eng

	s = tr.begin("core.New", 0, 0)
	t0 = time.Now()
	cas, err := core.New(core.Options{Engine: eng, PoolSize: 8})
	fx.newDur = time.Since(t0)
	tr.end(s)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("assembling CAS: %w", err)
	}
	fx.cas = cas

	s = tr.begin("core.RecoverInFlight", 0, 0)
	t0 = time.Now()
	_, err = cas.Service.RecoverInFlight(ctx)
	fx.recoverDur = time.Since(t0)
	tr.end(s)
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("recovering in-flight state: %w", err)
	}
	cas.SetAdmission(wire.AdmissionConfig{
		MaxInFlight: 256,
		QueueWait:   500 * time.Millisecond,
		FreshFor:    10 * time.Second,
	})
	return fx, nil
}

// serveHTTP starts the CAS's HTTP handler on a loopback port; wrap, when
// non-nil, is the harness's span-recording wrapper around it.
func (fx *fixture) serveHTTP(wrap func(http.Handler) http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := fx.cas.HTTPHandler()
	if wrap != nil {
		h = wrap(h)
	}
	fx.srv = &http.Server{Handler: h}
	fx.srvDone = make(chan struct{})
	fx.url = "http://" + ln.Addr().String() + "/services"
	go func() {
		defer close(fx.srvDone)
		fx.srv.Serve(ln) // returns ErrServerClosed from stopHTTP
	}()
	return nil
}

func (fx *fixture) stopHTTP() {
	if fx.srv == nil {
		return
	}
	fx.srv.Close()
	<-fx.srvDone
	fx.srv = nil
}

// close shuts the fixture down cleanly.
func (fx *fixture) close() error {
	fx.stopHTTP()
	err := fx.cas.Close()
	if cerr := fx.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// abandon models the crash: the listener goes away and the CAS is dropped
// without Close — no final checkpoint, no flush. What survives is whatever
// dev.crashImage() reports.
func (fx *fixture) abandon() { fx.stopHTTP() }
