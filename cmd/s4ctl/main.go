// Command s4ctl is the administrator's (and user's) console for a
// running s4d drive: drive status, version history, time-based reads,
// copy-forward restores, audit inspection, and the dangerous commands
// of Table 1 (SetWindow, Flush) over an authenticated admin session.
//
//	s4ctl -addr 127.0.0.1:4455 -adminkey admin-secret status
//	s4ctl ... versions 17
//	s4ctl ... read 17 -at 2026-07-06T12:00:00Z > before.txt
//	s4ctl ... revert 17 -at 2026-07-06T12:00:00Z
//	s4ctl ... audit -from 0 -max 50
//	s4ctl ... setwindow 336h
//	s4ctl ... flusho 17 -from <t1> -to <t2>
//
// Client (non-admin) sessions use -clientid/-clientkey/-user instead of
// -adminkey.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"s4/internal/s4fs"
	"s4/internal/s4rpc"
	"s4/internal/types"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4455", "drive address")
	adminKey := flag.String("adminkey", "", "administrator key (opens an admin session)")
	clientID := flag.Uint("clientid", 1, "client id for non-admin sessions")
	clientKey := flag.String("clientkey", "", "client key for non-admin sessions")
	user := flag.Uint("user", 0, "user id for non-admin sessions")
	timeout := flag.Duration("timeout", 30*time.Second, "per-call deadline")
	retries := flag.Int("retries", 8, "attempts per call across reconnects (1 disables retry)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	cfg := s4rpc.Config{
		Addr: *addr, CallTimeout: *timeout, MaxAttempts: *retries,
	}
	if *adminKey != "" {
		cfg.User, cfg.Key, cfg.Admin = types.AdminUser, []byte(*adminKey), true
	} else if *clientKey != "" {
		cfg.Client = types.ClientID(*clientID)
		cfg.User, cfg.Key = types.UserID(*user), []byte(*clientKey)
	} else {
		fatal("one of -adminkey or -clientkey is required")
	}
	c, err := s4rpc.DialConfig(cfg)
	if err != nil {
		fatal("connect: %v", err)
	}
	defer c.Close()

	cmd, rest := args[0], args[1:]
	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	atStr := sub.String("at", "", "time (RFC3339) for history access")
	fromStr := sub.String("from", "", "range start (RFC3339)")
	toStr := sub.String("to", "", "range end (RFC3339)")
	fromSeq := sub.Uint64("seq", 0, "audit: first sequence number")
	max := sub.Int("max", 100, "result bound")

	parseObj := func() types.ObjectID {
		if len(rest) == 0 {
			fatal("%s: object id required", cmd)
		}
		n, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			fatal("%s: bad object id %q", cmd, rest[0])
		}
		_ = sub.Parse(rest[1:])
		return types.ObjectID(n)
	}
	at := func() types.Timestamp {
		if *atStr == "" {
			return types.TimeNowest
		}
		t, err := time.Parse(time.RFC3339, *atStr)
		if err != nil {
			fatal("bad -at: %v", err)
		}
		return types.TS(t)
	}
	rng := func() (types.Timestamp, types.Timestamp) {
		f, err := time.Parse(time.RFC3339, *fromStr)
		if err != nil {
			fatal("bad -from: %v", err)
		}
		to, err := time.Parse(time.RFC3339, *toStr)
		if err != nil {
			fatal("bad -to: %v", err)
		}
		return types.TS(f), types.TS(to)
	}

	switch cmd {
	case "status":
		st, err := c.Status()
		check(err)
		fmt.Printf("window:         %v\n", st.Window)
		fmt.Printf("objects:        %d\n", st.Objects)
		fmt.Printf("live blocks:    %d (%.1f MB)\n", st.LiveBlocks, float64(st.LiveBlocks*types.BlockSize)/(1<<20))
		fmt.Printf("history blocks: %d (%.1f MB)\n", st.HistoryBlocks, float64(st.HistoryBlocks*types.BlockSize)/(1<<20))
		fmt.Printf("free segments:  %d / %d\n", st.FreeSegments, st.TotalSegments)
		fmt.Printf("audit records:  %d\n", st.AuditRecords)
		if len(st.Suspects) > 0 {
			fmt.Printf("THROTTLED CLIENTS (possible history-pool abuse): %v\n", st.Suspects)
		}
	case "stats":
		st, per, err := c.ShardStats()
		check(err)
		fmt.Printf("commit batches:  %d\n", st.CommitBatches)
		fmt.Printf("syncs coalesced: %d\n", st.SyncsCoalesced)
		fmt.Printf("device forces:   %d\n", st.DeviceForces)
		if n := st.CommitBatches + st.SyncsCoalesced; n > 0 {
			fmt.Printf("forces/sync:     %.3f\n", float64(st.DeviceForces)/float64(n))
		}
		fmt.Printf("vec appends:     %d\n", st.VecAppends)
		fmt.Printf("log appends:     %d blocks\n", st.LogAppends)
		fmt.Printf("flush stalls:    %d\n", st.FlushStalls)
		fmt.Printf("dirty objects:   %d\n", st.DirtyObjects)
		fmt.Printf("bytes written:   %d\n", st.BytesWritten)
		fmt.Printf("bytes read:      %d\n", st.BytesRead)
		fmt.Printf("cache hit rate:  %d / %d\n", st.CacheHits, st.CacheHits+st.CacheMisses)
		fmt.Printf("journal cache:   %d / %d\n", st.JournalCacheHits, st.JournalCacheHits+st.JournalCacheMisses)
		fmt.Printf("device reads:    %d (%d vectored)\n", st.DeviceReads, st.VecReads)
		if st.ReadOps > 0 {
			fmt.Printf("reads/op:        %.3f\n", float64(st.DeviceReads)/float64(st.ReadOps))
		}
		fmt.Printf("landmark hits:   %d\n", st.LandmarkHits)
		fmt.Printf("walk entries:    %d\n", st.HistoryWalkEntries)
		fmt.Printf("recon cache:     %d / %d\n", st.ReconCacheHits, st.ReconCacheHits+st.ReconCacheMisses)
		fmt.Printf("cleaner runs:    %d (%d segments freed, %d blocks compacted)\n",
			st.CleanerRuns, st.SegmentsFreed, st.BlocksCompacted)
		fmt.Printf("delta history:   %d packed blocks, %d bytes saved, %d keyframes\n",
			st.DeltaBlocksWritten, st.DeltaBytesSaved, st.ChainKeyframes)
		fmt.Printf("policy skips:    %d versions dropped by retention\n", st.PolicySkippedVersions)
		fmt.Printf("restart:         %v open (%d entries replayed)\n",
			st.OpenDuration.Round(time.Microsecond), st.RecoveryReplayEntries)
		fmt.Printf("segment index:   %d loads, %d fallbacks\n", st.IndexLoads, st.IndexFallbacks)
		fmt.Printf("scrub:           %d passes, %d blocks verified\n", st.ScrubPasses, st.ScrubBlocks)
		fmt.Printf("integrity:       %d corrupt detected, %d repaired, %d segments quarantined\n",
			st.CorruptDetected, st.CorruptRepaired, st.QuarantinedSegments)
		// Behind a gate the aggregate above sums the whole cluster;
		// the per-shard breakdown (ring order) shows how the router
		// spread the load.
		if len(per) > 1 {
			fmt.Printf("\n%-6s %-10s %-10s %-10s %-14s %s\n",
				"shard", "batches", "forces", "syncs", "bytes written", "bytes read")
			for i, s := range per {
				fmt.Printf("%-6d %-10d %-10d %-10d %-14d %d\n",
					i, s.CommitBatches, s.DeviceForces, s.SyncsCoalesced, s.BytesWritten, s.BytesRead)
			}
		}
	case "versions":
		obj := parseObj()
		vs, err := c.ListVersions(obj, *max)
		check(err)
		fmt.Printf("%-8s %-28s %-10s %-8s %-8s %s\n", "version", "time", "op", "user", "client", "size")
		for _, v := range vs {
			fmt.Printf("%-8d %-28s %-10s %-8d %-8d %d\n",
				v.Version, v.Time, v.Op, v.User, v.Client, v.Size)
		}
	case "read":
		obj := parseObj()
		check(copyObject(os.Stdout, c, obj, at()))
	case "revert":
		obj := parseObj()
		if *atStr == "" {
			fatal("revert: -at is required")
		}
		check(c.Revert(obj, at()))
		fmt.Printf("object %d restored to its state at %s\n", obj, *atStr)
	case "audit":
		_ = sub.Parse(rest)
		recs, err := c.AuditRead(*fromSeq, *max)
		check(err)
		// Behind a gate the stream is the merged cluster timeline and
		// (shard, seq) is the record identity; on a single drive the
		// shard column is all zeros.
		fmt.Printf("%-6s %-8s %-28s %-8s %-8s %-12s %-10s %s\n", "shard", "seq", "time", "client", "user", "op", "object", "ok")
		for _, r := range recs {
			fmt.Printf("%-6d %-8d %-28s %-8d %-8d %-12s %-10s %v\n",
				r.Shard, r.Seq, r.Time, r.Client, r.User, r.Op, r.Obj, r.OK)
		}
	case "scrub":
		sr, err := c.Scrub()
		check(err)
		fmt.Printf("scrubbed %d segments (%d blocks)\n", sr.Segments, sr.Blocks)
		fmt.Printf("corrupt:     %d unrepaired\n", sr.Corrupt)
		fmt.Printf("repaired:    %d\n", sr.Repaired)
		fmt.Printf("quarantined: %d segments\n", sr.Quarantined)
	case "setwindow":
		if len(rest) == 0 {
			fatal("setwindow: duration required")
		}
		w, err := time.ParseDuration(rest[0])
		check(err)
		check(c.SetWindow(w))
		fmt.Printf("detection window set to %v\n", w)
	case "flush":
		_ = sub.Parse(rest)
		f, to := rng()
		check(c.Flush(f, to))
		fmt.Println("history erased in range (all objects)")
	case "flusho":
		obj := parseObj()
		f, to := rng()
		check(c.FlushO(obj, f, to))
		fmt.Printf("object %d history erased in range\n", obj)
	case "ls":
		// The paper's "time-enhanced ls" (§3.6): list a directory
		// object as it was at any instant inside the window.
		obj := parseObj()
		var raw bytes.Buffer
		check(copyObject(&raw, c, obj, at()))
		fmt.Printf("%-10s %-8s %-10s %s\n", "object", "type", "size", "name")
		for _, e := range s4fs.ParseDirData(raw.Bytes()) {
			ea, err := c.GetAttr(types.ObjectID(e.Handle), at())
			size := "?"
			if err == nil {
				size = strconv.FormatUint(ea.Size, 10)
			}
			fmt.Printf("%-10d %-8s %-10s %s\n", uint64(e.Handle), e.Type, size, e.Name)
		}
	case "policy":
		// Per-object (or per-partition: names resolve through the
		// partition table) retention policy (DESIGN.md §16). "default"
		// or 0 addresses the drive-wide default policy.
		if len(rest) < 2 {
			fatal("policy: get|set and an object id, partition name, or \"default\" required")
		}
		verb, target := rest[0], rest[1]
		pset := flag.NewFlagSet("policy "+verb, flag.ExitOnError)
		modeStr := pset.String("mode", "every-version", "every-version | landmark-only | on-close")
		pwin := pset.Duration("window", 0, "per-object window override (0 = drive window)")
		delta := pset.Bool("delta", false, "store history as reverse deltas")
		clear := pset.Bool("clear", false, "remove the entry (revert to the drive default)")
		_ = pset.Parse(rest[2:])
		var obj types.ObjectID
		if target != "default" {
			if n, err := strconv.ParseUint(target, 10, 64); err == nil {
				obj = types.ObjectID(n)
			} else {
				id, err := c.PMount(target, types.TimeNowest)
				check(err)
				obj = id
			}
		}
		switch verb {
		case "get":
			p, own, err := c.GetPolicy(obj)
			check(err)
			source := "drive default"
			if own {
				source = "own entry"
			} else if obj == 0 {
				source = "drive default"
			}
			fmt.Printf("policy: %s (%s)\n", p, source)
		case "set":
			var p types.Policy
			if !*clear {
				m, err := types.ParsePolicyMode(*modeStr)
				check(err)
				p = types.Policy{Window: *pwin, Mode: m, DeltaEnabled: *delta}
			}
			check(c.SetPolicy(obj, p))
			fmt.Printf("policy for %s set to %s\n", target, p)
		default:
			fatal("policy: unknown verb %q (want get or set)", verb)
		}
	case "plist":
		_ = sub.Parse(rest)
		ps, err := c.PList(at())
		check(err)
		for _, p := range ps {
			fmt.Printf("%-24s -> %d\n", p.Name, p.Obj)
		}
	case "pmount":
		if len(rest) == 0 {
			fatal("pmount: name required")
		}
		name := rest[0]
		_ = sub.Parse(rest[1:])
		id, err := c.PMount(name, at())
		check(err)
		fmt.Println(uint64(id))
	default:
		usage()
	}
}

// copyObject writes obj's whole contents at t to w: its size from
// GetAttr, then Reads of at most MaxIO bytes each.
func copyObject(w io.Writer, c *s4rpc.Client, obj types.ObjectID, t types.Timestamp) error {
	ai, err := c.GetAttr(obj, t)
	if err != nil {
		return err
	}
	for off := uint64(0); off < ai.Size; off += types.MaxIO {
		part, err := c.Read(obj, off, min(types.MaxIO, ai.Size-off), t)
		if err != nil {
			return err
		}
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: s4ctl [flags] <command>
commands:
  status                       drive occupancy, window, throttled clients
  stats                        commit-pipeline and cache counters
  versions <obj> [-max n]      retained version history, newest first
  read <obj> [-at t]           object contents (optionally at a past time)
  ls <dirobj> [-at t]          time-enhanced directory listing (§3.6)
  revert <obj> -at t           copy the old version forward (restore)
  audit [-seq n] [-max n]      audit log (admin)
  scrub                        on-demand integrity sweep of all segments (admin)
  setwindow <dur>              adjust the detection window (admin)
  flush -from t -to t          erase all history in range (admin)
  flusho <obj> -from t -to t   erase one object's history in range (admin)
  policy get <obj|part|default>
  policy set <obj|part|default> [-mode m] [-window d] [-delta] [-clear]
                               retention policy: every-version | landmark-only |
                               on-close, optional delta compression (admin)
  plist [-at t]                list partitions
  pmount <name> [-at t]        resolve a partition name`)
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "s4ctl: "+format+"\n", args...)
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fatal("%v", err)
	}
}
