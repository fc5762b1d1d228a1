package core

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	"condorj2/internal/beans"
	"condorj2/internal/sqldb"
)

// NewWebsite builds the pool web site — the browser-facing external
// interface of Figure 4. Users and administrators "submit jobs, access
// standard reports, pose queries and configure system behavior from
// anywhere that they have access to the web" (§4.1). It is a thin
// presentation layer: every page is a view over the same application
// logic services the SOAP interface exposes.
func NewWebsite(s *Service) http.Handler {
	w := &website{svc: s}
	mux := http.NewServeMux()
	mux.HandleFunc("/", w.home)
	mux.HandleFunc("/queue", w.queue)
	mux.HandleFunc("/users", w.users)
	mux.HandleFunc("/config", w.config)
	mux.HandleFunc("/submit", w.submit)
	return mux
}

type website struct {
	svc *Service
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>CondorJ2 — {{.Title}}</title>
<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:4px 10px}nav a{margin-right:1em}</style>
</head><body>
<nav><a href="/">pool</a><a href="/queue">queue</a><a href="/users">users</a>
<a href="/config">config</a></nav>
<h1>{{.Title}}</h1>
{{range .Tables}}<h2>{{.Caption}}</h2>
<table><tr>{{range .Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}</table>
{{end}}
{{if .Note}}<p>{{.Note}}</p>{{end}}
</body></html>`))

type pageTable struct {
	Caption string
	Header  []string
	Rows    [][]string
}

type pageData struct {
	Title  string
	Tables []pageTable
	Note   string
}

func (w *website) render(rw http.ResponseWriter, data pageData) {
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(rw, data); err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
	}
}

func (w *website) home(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(rw, r)
		return
	}
	st, err := w.svc.PoolStatus(r.Context(), &PoolStatusRequest{})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	toTable := func(caption string, scs []StateCount) pageTable {
		t := pageTable{Caption: caption, Header: []string{"state", "count"}}
		for _, sc := range scs {
			t.Rows = append(t.Rows, []string{sc.State, strconv.FormatInt(sc.Count, 10)})
		}
		return t
	}
	w.render(rw, pageData{
		Title: "Pool Status",
		Tables: []pageTable{
			toTable("Machines", st.Machines),
			toTable("Virtual Machines", st.VMs),
			toTable("Jobs", st.Jobs),
		},
		Note: fmt.Sprintf("%d jobs in progress", st.RunningJobs),
	})
}

func (w *website) queue(rw http.ResponseWriter, r *http.Request) {
	resp, err := w.svc.QueueStatus(r.Context(), &QueueStatusRequest{Owner: r.URL.Query().Get("owner")})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	t := pageTable{Caption: "Jobs", Header: []string{"id", "owner", "state", "length (s)"}}
	for _, j := range resp.Jobs {
		t.Rows = append(t.Rows, []string{
			strconv.FormatInt(j.ID, 10), j.Owner, j.State, strconv.FormatInt(j.LengthSec, 10),
		})
	}
	w.render(rw, pageData{Title: "Job Queue", Tables: []pageTable{t}})
}

// users renders the accounting report from a read-only snapshot
// transaction: a full scan of the accounting table that takes no locks,
// so it can run at any frequency without perturbing the job pipeline.
func (w *website) users(rw http.ResponseWriter, r *http.Request) {
	t := pageTable{Caption: "Accounting", Header: []string{"owner", "completed", "dropped", "runtime (s)"}}
	err := w.svc.c.InReadTx(r.Context(), func(tx *sqldb.Tx) error {
		return beans.Each(tx, func(a *Accounting) error {
			t.Rows = append(t.Rows, []string{a.Owner, strconv.FormatInt(a.CompletedJobs, 10),
				strconv.FormatInt(a.DroppedJobs, 10), strconv.FormatInt(a.TotalRuntimeSec, 10)})
			return nil
		}, "ORDER BY owner")
	})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	w.render(rw, pageData{Title: "Users", Tables: []pageTable{t}})
}

// gated answers a mutating request the write gate refuses — this node is
// a replication follower — with 503 naming the leader, and reports whether
// it did.
func (w *website) gated(rw http.ResponseWriter, r *http.Request) bool {
	f := w.svc.writeGate(r.Method + " " + r.URL.Path)
	if f == nil {
		return false
	}
	leader := f.Leader
	if leader == "" {
		leader = "unknown"
	}
	http.Error(rw, fmt.Sprintf("%s; leader: %s", f.Message, leader), http.StatusServiceUnavailable)
	return true
}

func (w *website) config(rw http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if w.gated(rw, r) {
			return
		}
		name, value := r.FormValue("name"), r.FormValue("value")
		if name != "" {
			if _, err := w.svc.ConfigSet(r.Context(), &ConfigSetRequest{Name: name, Value: value}); err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		http.Redirect(rw, r, "/config", http.StatusSeeOther)
		return
	}
	t := pageTable{Caption: "Configuration", Header: []string{"name", "value"}}
	err := w.svc.c.InReadTx(r.Context(), func(tx *sqldb.Tx) error {
		rows, err := txQuery(tx, `SELECT name, value FROM config ORDER BY name`)
		for err == nil && rows.Next() {
			t.Rows = append(t.Rows, []string{rows.Col(0).Text(), rows.Col(1).Text()})
		}
		return err
	})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	w.render(rw, pageData{Title: "Configuration", Tables: []pageTable{t}})
}

// submit accepts a POST form (owner, count, length_sec) — the web-site
// flavour of the submitJob service.
func (w *website) submit(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST owner, count, length_sec", http.StatusMethodNotAllowed)
		return
	}
	if w.gated(rw, r) {
		return
	}
	count, _ := strconv.Atoi(r.FormValue("count"))
	length, _ := strconv.ParseInt(r.FormValue("length_sec"), 10, 64)
	resp, err := w.svc.Submit(r.Context(), &SubmitRequest{
		Owner: r.FormValue("owner"), Count: count, LengthSec: length,
	})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(rw, "submitted jobs %d..%d\n", resp.FirstJobID, resp.LastJobID)
}
