package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpanJSON fuzzes the one span decoder — the LOG, denial-log, trace
// file and span-stream format. Decoding any input must not panic, and any
// input that decodes must re-encode byte-stably: marshal → unmarshal →
// marshal yields the same bytes. Seeds live in testdata/fuzz/FuzzSpanJSON.
func FuzzSpanJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Span
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		first, err := json.Marshal(&sp)
		if err != nil {
			t.Fatalf("marshal of a decoded span: %v", err)
		}
		var back Span
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-decode of %s: %v", first, err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not byte-stable:\n first %s\nsecond %s", first, second)
		}
	})
}
