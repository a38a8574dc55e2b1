package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into the program, recorded by the harness
// around the call. Start and End are nanoseconds since the recorder was
// created; Parent is the index of the enclosing span (-1 for none); Op
// groups the spans of one operation (one round, one miss, one deploy).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op_id"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per site.
type spanRec struct {
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now(), spans: make([]span, 0, 1<<20)} }

func (r *spanRec) begin(name string, parent int32, op int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: op})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
}

func (r *spanRec) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
