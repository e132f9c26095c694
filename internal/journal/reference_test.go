package journal

import (
	"encoding/binary"
	"fmt"

	"s4/internal/seglog"
	"s4/internal/types"
)

// The entry decoder as it stood before sectors decoded in place (PR 24):
// it returns the ~250-byte Entry by value and makes New and Old per
// write entry. It is the oracle, not a second path: DecodeSector must
// accept exactly the sectors that decoding entry by entry with this
// accepts, and produce entries reflect.DeepEqual to its — nil-ness of
// every list included. FuzzDecode and FuzzDecodeSector hold it to that.

func refDecode(data []byte) (Entry, []byte, error) {
	var e Entry
	if len(data) < 1 {
		return e, nil, fmt.Errorf("journal: short entry: %w", types.ErrCorrupt)
	}
	e.Type = EntryType(data[0])
	data = data[1:]
	wire2 := false
	if e.Type == entWrite2 {
		// Normalize: in-memory entries are always EntWrite; the v2 tag
		// only signals the three extra trailing fields.
		e.Type = EntWrite
		wire2 = true
	}
	getU := func() (uint64, error) {
		v, m := binary.Uvarint(data)
		if m <= 0 {
			return 0, fmt.Errorf("journal: bad varint: %w", types.ErrCorrupt)
		}
		data = data[m:]
		return v, nil
	}
	getBytes := func() ([]byte, error) {
		n, err := getU()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("journal: truncated bytes field: %w", types.ErrCorrupt)
		}
		b := append([]byte(nil), data[:n]...)
		data = data[n:]
		return b, nil
	}
	var err error
	var v uint64
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.Version = v
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.Time = types.Timestamp(v)
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.User = types.UserID(v)
	if v, err = getU(); err != nil {
		return e, nil, err
	}
	e.Client = types.ClientID(v)

	switch e.Type {
	case EntCreate:
	case EntWrite:
		if e.FirstBlock, err = getU(); err != nil {
			return e, nil, err
		}
		n, err := getU()
		if err != nil {
			return e, nil, err
		}
		if n > MaxBlocksPerEntry {
			return e, nil, fmt.Errorf("journal: entry spans %d blocks: %w", n, types.ErrCorrupt)
		}
		e.New = make([]seglog.BlockAddr, n)
		e.Old = make([]seglog.BlockAddr, n)
		for i := range e.New {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.New[i] = seglog.BlockAddr(v)
		}
		for i := range e.Old {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.Old[i] = seglog.BlockAddr(v)
		}
		if e.OldSize, err = getU(); err != nil {
			return e, nil, err
		}
		if e.NewSize, err = getU(); err != nil {
			return e, nil, err
		}
		if wire2 {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.DeltaMask = uint32(v)
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.SkipMask = uint32(v)
			lim := uint32(1)<<uint(n) - 1
			if e.DeltaMask&^lim != 0 || e.SkipMask&^lim != 0 ||
				e.DeltaMask&e.SkipMask != 0 || e.DeltaMask|e.SkipMask == 0 {
				return e, nil, fmt.Errorf("journal: bad entry masks %#x/%#x over %d blocks: %w",
					e.DeltaMask, e.SkipMask, n, types.ErrCorrupt)
			}
			for m := e.SkipMask; m != 0; m &= m - 1 {
				if v, err = getU(); err != nil {
					return e, nil, err
				}
				e.Dropped = append(e.Dropped, seglog.BlockAddr(v))
			}
		}
	case EntTruncate:
		if e.FirstBlock, err = getU(); err != nil {
			return e, nil, err
		}
		n, err := getU()
		if err != nil {
			return e, nil, err
		}
		if n > MaxBlocksPerEntry {
			return e, nil, fmt.Errorf("journal: entry spans %d blocks: %w", n, types.ErrCorrupt)
		}
		e.Old = make([]seglog.BlockAddr, n)
		for i := range e.Old {
			if v, err = getU(); err != nil {
				return e, nil, err
			}
			e.Old[i] = seglog.BlockAddr(v)
		}
		if e.OldSize, err = getU(); err != nil {
			return e, nil, err
		}
		if e.NewSize, err = getU(); err != nil {
			return e, nil, err
		}
	case EntSetAttr:
		if e.OldAttr, err = getBytes(); err != nil {
			return e, nil, err
		}
		if e.NewAttr, err = getBytes(); err != nil {
			return e, nil, err
		}
	case EntSetACL:
		if len(data) < 1 {
			return e, nil, fmt.Errorf("journal: truncated setacl: %w", types.ErrCorrupt)
		}
		e.ACLIndex = data[0]
		data = data[1:]
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.OldACL.User = types.UserID(v)
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.OldACL.Perm = types.Perm(v)
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.NewACL.User = types.UserID(v)
		if v, err = getU(); err != nil {
			return e, nil, err
		}
		e.NewACL.Perm = types.Perm(v)
	case EntDelete, EntRevive:
		if e.OldSize, err = getU(); err != nil {
			return e, nil, err
		}
	case EntCheckpoint:
		if e.Image, err = getBytes(); err != nil {
			return e, nil, err
		}
	default:
		return e, nil, fmt.Errorf("journal: unknown entry type %d: %w", e.Type, types.ErrCorrupt)
	}
	return e, data, nil
}
