package s4rpc

import (
	"errors"
	"testing"

	"s4/internal/types"
)

// TestKeyringAddClients parses the daemons' -clientkey spec: id=key
// pairs, comma-separated, with 32-bit numeric ids.
func TestKeyringAddClients(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want map[types.ClientID]string // nil: the spec is refused
	}{
		{spec: "1=one,7=seven", want: map[types.ClientID]string{1: "one", 7: "seven"}},
		{spec: "", want: map[types.ClientID]string{}},
		{spec: ",3=a=b,", want: map[types.ClientID]string{3: "a=b"}},
		{spec: "1=one,2"},
		{spec: "x=key"},
		{spec: "-1=key"},
		{spec: "4294967296=key"},
	} {
		k := NewKeyring([]byte("admin"))
		err := k.AddClients(tc.spec)
		if tc.want == nil {
			if !errors.Is(err, types.ErrInval) {
				t.Errorf("AddClients(%q) = %v, want ErrInval", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("AddClients(%q): %v", tc.spec, err)
			continue
		}
		if len(k.clients) != len(tc.want) {
			t.Errorf("AddClients(%q) registered %d clients, want %d", tc.spec, len(k.clients), len(tc.want))
		}
		for id, key := range tc.want {
			if got := string(k.clients[id]); got != key {
				t.Errorf("AddClients(%q): client %d key %q, want %q", tc.spec, id, got, key)
			}
		}
	}
}
