package trace

import (
	"bytes"
	"testing"

	"pfirewall/internal/obs"
)

func TestStoreRoundTripJSON(t *testing.T) {
	spans := []obs.Span{
		{PID: 1, Subject: "httpd_t", Object: "tmp_t",
			Op: "FILE_OPEN", Program: "/usr/bin/apache2",
			Entrypoint: 0x41a20, Flags: obs.SpanAdvWrite, Verdict: "ACCEPT"},
		{PID: 2, Subject: "sshd_t", Object: "etc_t",
			Op: "FILE_READ", Program: "/usr/sbin/sshd",
			Entrypoint: 0x100, Verdict: "DROP"},
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, spans); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d records", len(loaded))
	}
	for i := range spans {
		if loaded[i] != spans[i] {
			t.Errorf("record %d: %+v != %+v", i, loaded[i], spans[i])
		}
	}
}

func TestReadJSONBadInput(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Error("malformed JSON should fail")
	}
}

func TestByEntrypointGroupsInOrder(t *testing.T) {
	var spans []obs.Span
	for i := 0; i < 5; i++ {
		spans = append(spans,
			obs.Span{Program: "/a", Entrypoint: 1, Seq: uint64(i)},
			obs.Span{Program: "/b", Entrypoint: 2, Seq: uint64(100 + i)})
	}
	groups := ByEntrypoint(spans)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	a := groups[EpKey{"/a", 1}]
	for i, r := range a {
		if r.Seq != uint64(i) {
			t.Errorf("group order broken: %d -> %d", i, r.Seq)
		}
	}
}

func TestEpKey(t *testing.T) {
	r := obs.Span{Program: "/x", Entrypoint: 7}
	if Ep(&r) != (EpKey{"/x", 7}) {
		t.Error("Ep mismatch")
	}
}
