// Package trace reads and writes the Process Firewall's LOG record stream
// (paper Section 5.2: the LOG target "logs a variety of information about
// the current resource access in JSON format") and groups it per
// entrypoint for rule generation (Section 6.3). A record is an obs.Span in
// its JSON-lines wire schema, the same schema the span stream carries.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"pfirewall/internal/obs"
)

// WriteJSON streams spans as JSON lines.
func WriteJSON(w io.Writer, spans []obs.Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON loads JSON-lines spans, in file order.
func ReadJSON(r io.Reader) ([]obs.Span, error) {
	var out []obs.Span
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var sp obs.Span
		if err := dec.Decode(&sp); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode: %w", err)
		}
		out = append(out, sp)
	}
}

// EpKey identifies an entrypoint: the program (or library/script) and the
// offset within it.
type EpKey struct {
	Program string
	Off     uint64
}

// Ep returns the span's entrypoint key.
func Ep(sp *obs.Span) EpKey { return EpKey{sp.Program, sp.Entrypoint} }

// ByEntrypoint groups spans per entrypoint, preserving per-entrypoint
// order (one record = one invocation, per the paper's definition "one
// invocation is one system call"). The groups point into spans, which
// must outlive them.
func ByEntrypoint(spans []obs.Span) map[EpKey][]*obs.Span {
	out := make(map[EpKey][]*obs.Span)
	for i := range spans {
		k := Ep(&spans[i])
		out[k] = append(out[k], &spans[i])
	}
	return out
}
