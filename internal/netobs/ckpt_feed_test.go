package netobs

import (
	"bytes"
	"reflect"
	"testing"

	"unison/internal/ckpt"
)

// fed is a sampler with one probe and the rows its feed handed a sink.
type fed struct {
	s    *Sampler
	p    *DevProbe
	rows []Row
}

func newFed() *fed {
	f := &fed{s: NewSampler(SamplerConfig{Interval: 1000})}
	f.p = f.s.Register(1, 0, 1e9)
	return f
}

// TestRestoredFeedShipsEveryRowOnce: a run restored from a snapshot starts
// a new feed, whose sink (a new stream, a new coordinator) has seen none of
// the sampler's rows, so it is handed every row, those closed before the
// snapshot included, each once.
func TestRestoredFeedShipsEveryRowOnce(t *testing.T) {
	before := newFed()
	feed, _ := before.s.Feed(func(r []Row) { before.rows = append(before.rows, r...) })
	pause := feed.New()
	before.p.OnEnqueue(100, 1, false)
	before.p.OnDequeue(1500, 0, 64) // closes [0,1000)
	pause.Start(nil)
	before.p.OnEnqueue(2500, 1, false) // closes [1000,2000)
	pause.Start(nil)
	if len(before.rows) != 2 {
		t.Fatalf("the first run's feed handed over %+v", before.rows)
	}
	var e ckpt.Enc
	if err := before.s.CkptSave(&e); err != nil {
		t.Fatal(err)
	}

	after := newFed()
	if err := after.s.CkptLoad(ckpt.NewDec(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	feed, finish := after.s.Feed(func(r []Row) { after.rows = append(after.rows, r...) })
	pause = feed.New()
	after.p.OnEnqueue(3500, 1, false) // closes [2000,3000)
	pause.Start(nil)
	pause.Start(nil)
	finish()
	if want := after.s.Rows(); len(want) != 4 || !reflect.DeepEqual(after.rows, want) {
		t.Fatalf("the restored feed handed over\n %+v\nthe sampler holds\n %+v", after.rows, want)
	}
}

// TestSnapshotBytesIndependentOfFeed: a sampler whose rows were streamed
// saves the same bytes as one whose were not.
func TestSnapshotBytesIndependentOfFeed(t *testing.T) {
	var img [2][]byte
	for i, streamed := range []bool{false, true} {
		f := newFed()
		feed, _ := f.s.Feed(func([]Row) {})
		pause := feed.New()
		f.p.OnEnqueue(100, 1, false)
		f.p.OnDequeue(1500, 0, 64)
		f.p.OnEnqueue(2500, 1, false)
		if streamed {
			pause.Start(nil)
		}
		var e ckpt.Enc
		if err := f.s.CkptSave(&e); err != nil {
			t.Fatal(err)
		}
		img[i] = e.Bytes()
	}
	if !bytes.Equal(img[0], img[1]) {
		t.Fatalf("a streamed sampler saves %d bytes that differ from an unstreamed one's %d", len(img[1]), len(img[0]))
	}
}
