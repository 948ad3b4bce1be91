// Package live writes a run's record stream (netobs.RecordsFile, schema
// netobs.RecordsSchema) while the run goes, and serves it to watchers:
// GET /live answers with the file's bytes from offset 0 and follows the
// file until its last line, the run's final stats, is on disk. A late
// watcher therefore still reads the whole run. cmd/unimon is the watcher;
// it decodes the stream with netobs.DecodeRecord and folds it itself.
//
// A Stream is a probe that only copies each record into a buffer, which a
// background goroutine encodes and writes; nothing in the simulation reads
// from it, so an attached run stays bit-identical to an unattached one.
// Wall-clock use is legal here: this is not a simulation package.
package live

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/obs/obshttp"
	"unison/internal/sim"
)

const (
	// flushEvery is how often buffered records reach the file.
	flushEvery = 100 * time.Millisecond
	// linger is how long Close waits for a watcher to read the stream to
	// its stats line (only when a watcher ever connected).
	linger = 5 * time.Second
)

// Stream writes one run's record stream to a file. It is the probe the
// CLIs tee beside their ImbalanceTracker, and the one copy of the run's
// round records and sampler rows: the bundle renders its series.csv and
// Perfetto lanes from the file. Rows adds sampler row deltas, Flush puts
// what is buffered on disk, Finish the final stats, Serve the /live
// endpoint.
type Stream struct {
	meta netobs.StreamMeta
	f    *os.File
	temp bool

	mu     sync.Mutex // guards rounds, rows and cuts, filled on the round path
	rounds []obs.RoundRecord
	rows   []netobs.Row
	cuts   []cut // where the row deltas go among the rounds, in arrival order

	wmu          sync.Mutex // serializes writes; guards buf and err
	buf          []byte
	err          error
	stop, exited chan struct{} // the flusher's stop signal and its exit
	stopOnce     sync.Once

	done    chan struct{} // closed once the stats line is on disk
	quit    chan struct{} // closed by Close: watchers stop following
	srv     *obshttp.Server
	watched atomic.Bool
	served  chan struct{} // closed once a watcher read through the stats line
	once    sync.Once
}

// Create starts a stream at path, or, when path is "", at a temporary file
// that Close removes. tool names the CLI; stopAt (the run's simulated end)
// and interval (the sampler's bucket width) go into the meta line, 0 when
// unknown.
func Create(path, tool string, stopAt, interval sim.Time) (*Stream, error) {
	var f *os.File
	var err error
	if path == "" {
		f, err = os.CreateTemp("", "unison-*-"+netobs.RecordsFile)
	} else if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		f, err = os.Create(path)
	}
	if err != nil {
		return nil, err
	}
	s := &Stream{
		meta: netobs.StreamMeta{Schema: netobs.RecordsSchema, Tool: tool, StopNS: int64(stopAt), IntervalNS: int64(interval)},
		f:    f, temp: path == "",
		stop: make(chan struct{}), exited: make(chan struct{}),
		done: make(chan struct{}), quit: make(chan struct{}), served: make(chan struct{}),
	}
	go s.flusher()
	return s, nil
}

// BeginRun implements obs.Probe: it writes the meta line. Kernels call it
// before any worker starts, so it is written at once.
func (s *Stream) BeginRun(meta obs.RunMeta) {
	m := s.meta
	m.Kernel, m.Workers, m.LPs, m.StartUnixNS = meta.Kernel, meta.Workers, meta.LPs, time.Now().UnixNano()
	s.wmu.Lock()
	s.encodeLocked(&netobs.Record{Meta: &m})
	s.writeLocked()
	s.wmu.Unlock()
}

// OnRound implements obs.Probe: a copy of rec joins the buffer.
func (s *Stream) OnRound(rec *obs.RoundRecord) {
	s.mu.Lock()
	s.rounds = append(s.rounds, *rec)
	s.mu.Unlock()
}

// EndRun implements obs.Probe; the stats line is Finish's.
func (s *Stream) EndRun(*sim.RunStats) {}

// cut places a row delta: it follows the first rounds buffered records, and
// rows[:end] are it and those before.
type cut struct{ rounds, end int }

// Rows adds sampler row deltas to the buffer, after the round records
// buffered so far.
func (s *Stream) Rows(rows []netobs.Row) {
	s.mu.Lock()
	s.rows = append(s.rows, rows...)
	s.cuts = append(s.cuts, cut{len(s.rounds), len(s.rows)})
	s.mu.Unlock()
}

// stopFlusher stops the flusher and waits for it to exit.
func (s *Stream) stopFlusher() {
	s.stopOnce.Do(func() {
		close(s.stop)
		<-s.exited
	})
}

func (s *Stream) flusher() {
	defer close(s.exited)
	t := time.NewTicker(flushEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.Flush() // the error sticks for Finish
		case <-s.stop:
			return
		}
	}
}

// Flush writes the buffered records to the file in the order they arrived
// and returns the first error the stream met. The bundle is rendered from
// the file, so the CLIs flush before they write it.
func (s *Stream) Flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	rounds, rows, cuts := s.rounds, s.rows, s.cuts
	s.rounds, s.rows, s.cuts = nil, nil, nil
	s.mu.Unlock()
	r, w := 0, 0
	for _, c := range append(cuts, cut{len(rounds), len(rows)}) {
		for ; r < c.rounds; r++ {
			s.encodeLocked(&netobs.Record{Round: &rounds[r]})
		}
		for ; w < c.end; w++ {
			s.encodeLocked(&netobs.Record{Row: &rows[w]})
		}
	}
	s.writeLocked()
	return s.err
}

// encodeLocked appends r's line to buf; the first error sticks.
func (s *Stream) encodeLocked(r *netobs.Record) {
	if s.err == nil {
		s.buf, s.err = netobs.AppendRecord(s.buf, r)
	}
}

// writeLocked writes buf to the file and empties it.
func (s *Stream) writeLocked() {
	if s.err == nil {
		_, s.err = s.f.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// Finish writes what is buffered and then st, the stream's last line. Call
// it once the run's other outputs are on disk: a watcher takes the stats
// line as the end of the run. It returns the first error the stream met.
func (s *Stream) Finish(st *sim.RunStats) error {
	s.stopFlusher()
	_ = s.Flush() // its error sticks: returned below
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.encodeLocked(&netobs.Record{Stats: st})
	s.writeLocked()
	close(s.done)
	return s.err
}

// Serve starts the /live endpoint on addr (":0" picks a port) and returns
// the bound address.
func (s *Stream) Serve(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/live", s.follow)
	srv, err := obshttp.Start(addr, mux)
	if err != nil {
		return "", err
	}
	s.srv = srv
	return srv.Addr(), nil
}

// follow serves the stream from offset 0 and follows it to the stats line.
func (s *Stream) follow(w http.ResponseWriter, r *http.Request) {
	s.watched.Store(true)
	f, err := os.Open(s.f.Name())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	t := time.NewTicker(flushEvery)
	defer t.Stop()
	for {
		finished := isClosed(s.done) // before the copy, so the copy reaches the stats line
		if _, err := io.Copy(w, f); err != nil {
			return
		}
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		if finished {
			s.once.Do(func() { close(s.served) })
			return
		}
		select {
		case <-t.C:
		case <-s.done:
		case <-s.quit:
			return
		case <-r.Context().Done():
			return
		}
	}
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Close waits, if a watcher ever connected, up to linger for one to have
// read the whole stream, then stops the endpoint, closes the file and
// removes it if it was temporary. Called without Finish, on an error path,
// it drops what is still buffered.
func (s *Stream) Close() {
	s.stopFlusher()
	if s.watched.Load() {
		select {
		case <-s.served:
		case <-time.After(linger):
		}
	}
	close(s.quit)
	if s.srv != nil {
		_ = s.srv.Close()
	}
	_ = s.f.Close()
	if s.temp {
		_ = os.Remove(s.f.Name())
	}
}
