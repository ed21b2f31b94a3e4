package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"resistecc"
	"resistecc/internal/persist"
	"resistecc/internal/trace"
)

// cmdSnapshot builds a FASTQUERY index offline and persists it, so a reccd
// started over the same input and flags comes up warm without solver work.
// With -data-dir the snapshot lands in a durable store directory (the form
// reccd -data-dir consumes); with -out it is one self-contained file for
// resistecc.LoadSnapshot. Flag defaults match reccd's.
func cmdSnapshot(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list")
	dataDir := fs.String("data-dir", "", "durable store directory to checkpoint into")
	out := fs.String("out", "", "write one snapshot file instead of a store directory")
	eps := fs.Float64("eps", 0.2, "approximation parameter")
	dim := fs.Int("dim", 128, "sketch dimension override")
	hullCap := fs.Int("hullcap", 64, "max hull vertices")
	seed := fs.Int64("seed", 1, "sketch seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*dataDir == "") == (*out == "") {
		return fmt.Errorf("need exactly one of -data-dir or -out")
	}
	g, _, err := loadLCC(*in)
	if err != nil {
		return err
	}
	opts := []resistecc.Option{
		resistecc.WithEpsilon(*eps), resistecc.WithDim(*dim),
		resistecc.WithSeed(*seed), resistecc.WithMaxHullVertices(*hullCap),
	}
	if *dataDir != "" {
		d, info, err := resistecc.OpenDynamicIndex(ctx, *dataDir, g, opts...)
		if err != nil {
			return err
		}
		defer d.Close()
		// Opening checkpoints whatever the store did not hold (the cold
		// build, or the state its WAL replayed to) or fails, so the store
		// now holds the served state.
		ps := d.PersistStats()
		switch {
		case !info.Warm:
			fmt.Fprintf(os.Stderr, "recc: cold build (%s) checkpointed into %s\n", info.Reason, *dataDir)
		case ps.Checkpoints == 0:
			fmt.Fprintf(os.Stderr, "recc: store %s was already warm and current; nothing written\n", *dataDir)
		default:
			fmt.Fprintf(os.Stderr, "recc: store %s was warm; %d replayed WAL records absorbed into a fresh snapshot\n",
				*dataDir, info.ReplayedMutations)
		}
		fmt.Printf("snapshot seq %d, generation %d, %d nodes, %d edges\n",
			ps.SnapshotSeq, ps.SnapshotGeneration, g.N(), g.M())
		return nil
	}
	d, err := resistecc.NewDynamicIndex(ctx, g, opts...)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.SaveSnapshot(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes, %d nodes, %d edges\n", *out, fi.Size(), g.N(), g.M())
	return nil
}

// cmdInspect prints what recovery would see in a snapshot, WAL, tail-frame,
// or trace file, or a durable store directory: per-section sizes and
// checksums, build parameters, and each format's valid prefix — without
// loading the index.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	path := fs.String("path", "", "snapshot, WAL, tail-frame, or trace file, or a store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := *path
	if p == "" {
		if fs.NArg() == 1 {
			p = fs.Arg(0)
		} else {
			return fmt.Errorf("-path is required (snapshot file or store directory)")
		}
	}
	fi, err := os.Stat(p)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		switch sniffMagic(p) {
		case trace.Magic:
			return inspectTrace(p, fi.Size())
		case persist.WALMagic:
			return inspectWAL(p)
		case persist.TailMagic:
			return inspectTailFrame(p)
		}
		// Everything else is presented as a snapshot; InspectSnapshot
		// reports an unrecognized magic rather than failing.
		rep, err := persist.InspectSnapshot(p)
		if err != nil {
			return err
		}
		printReport(rep)
		return nil
	}
	reps, wal, err := persist.InspectDir(p)
	if err != nil {
		return err
	}
	if len(reps) == 0 {
		fmt.Println("no snapshots")
	}
	for i, rep := range reps {
		if i > 0 {
			fmt.Println()
		}
		printReport(rep)
	}
	if wal != nil {
		fmt.Println()
		printWALInfo(wal)
	}
	return nil
}

// sniffMagic reads the 8-byte format tag so inspect can dispatch between the
// four on-disk formats without an extension convention.
func sniffMagic(p string) string {
	f, err := os.Open(p)
	if err != nil {
		return ""
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return ""
	}
	return string(hdr[:])
}

// inspectWAL prints what recovery would see in a standalone WAL file: the
// valid record prefix and any torn tail recovery would truncate.
func inspectWAL(p string) error {
	wi, err := persist.InspectWAL(p)
	if err != nil {
		return err
	}
	printWALInfo(wi)
	return nil
}

func printWALInfo(wal *persist.WALInfo) {
	fmt.Printf("wal %s\n", wal.Path)
	if wal.Version != 0 {
		fmt.Printf("  size        %d bytes, format v%d\n", wal.Size, wal.Version)
	} else {
		fmt.Printf("  size        %d bytes\n", wal.Size)
	}
	fmt.Printf("  records     %d", wal.Records)
	if wal.Records > 0 {
		fmt.Printf(" (seq %d..%d)", wal.FirstSeq, wal.LastSeq)
	}
	fmt.Println()
	if wal.TornBytes > 0 {
		fmt.Printf("  torn tail   %d bytes (recovery discards them)\n", wal.TornBytes)
	}
}

// inspectTailFrame prints what a replica would see in a captured tail-fetch
// frame: the writer's header fields, how many records verify, and why the
// frame would be rejected if it would be. Frames apply all-or-nothing, so
// unlike a WAL a bad byte anywhere invalidates the whole frame.
func inspectTailFrame(p string) error {
	ti, err := persist.InspectTail(p)
	if err != nil {
		return err
	}
	fmt.Printf("tail frame %s\n", ti.Path)
	fmt.Printf("  size        %d bytes, format v%d\n", ti.Size, ti.Version)
	if ti.Valid {
		fmt.Printf("  status      valid\n")
	} else {
		fmt.Printf("  status      INVALID: %s\n", ti.Err)
	}
	if ti.HeaderOK {
		fmt.Printf("  writer      lastSeq=%d gen=%d snapSeq=%d snapGen=%d\n",
			ti.LastSeq, ti.WriterGen, ti.SnapSeq, ti.SnapGen)
	}
	fmt.Printf("  records     %d declared, %d verified", ti.Declared, ti.Records)
	if ti.Records > 0 {
		fmt.Printf(" (seq %d..%d)", ti.FirstRec, ti.LastRec)
	}
	fmt.Println()
	if ti.TornBytes > 0 {
		fmt.Printf("  trailing    %d bytes past the verified records (a replica rejects the frame)\n", ti.TornBytes)
	}
	return nil
}

// inspectTrace prints what a replayer would see in a trace file: the valid
// record prefix with per-op counts, the wall-clock span the arrival deltas
// cover, and how much of the file is a torn tail a reader discards.
func inspectTrace(p string, size int64) error {
	info, err := trace.InspectFile(p)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s\n", p)
	fmt.Printf("  size        %d bytes, format v%d\n", size, info.Version)
	fmt.Printf("  records     %d", info.Records)
	if info.Records > 0 {
		fmt.Printf(" (seq %d..%d)", info.FirstSeq, info.LastSeq)
	}
	fmt.Println()
	for op := trace.OpQuery; int(op) < len(info.ByOp); op++ {
		if n := info.ByOp[op]; n > 0 {
			fmt.Printf("  %-11s %d\n", op, n)
		}
	}
	fmt.Printf("  span        %s of recorded arrivals\n", time.Duration(info.SpanNanos).Round(time.Millisecond))
	if info.TornBytes > 0 {
		fmt.Printf("  torn tail   %d bytes after the %d-byte valid prefix (replay discards them)\n",
			info.TornBytes, info.ValidBytes)
	}
	return nil
}

// printReport prints a snapshot report. The saved, state and build lines
// come from the meta section and appear only when it decodes; a section's
// details are what its decoder found.
func printReport(rep *persist.Report) {
	fmt.Printf("snapshot %s\n", rep.Path)
	fmt.Printf("  size        %d bytes, format v%d\n", rep.Size, rep.Version)
	if rep.Valid {
		fmt.Printf("  status      valid\n")
	} else {
		fmt.Printf("  status      INVALID: %s\n", rep.Err)
	}
	if m := rep.Meta; m != nil {
		fmt.Printf("  saved       %s\n", time.Unix(0, m.SavedUnixNano).Format("2006-01-02 15:04:05 MST"))
		fmt.Printf("  state       seq=%d gen=%d fingerprint=%016x\n", m.Seq, m.Gen, m.BaseFP)
		fmt.Printf("  build       eps=%g dim=%d seed=%d hullcap=%d\n",
			m.Params.Epsilon, m.Params.Dim, m.Params.Seed, m.Params.HullMaxVertices)
	}
	for _, sec := range rep.Sections {
		crc := "ok"
		if !sec.CRCOK {
			crc = "CORRUPT"
		}
		fmt.Printf("  section %-9s %9d bytes  crc %s", sec.Name, sec.Bytes, crc)
		if sec.Details != "" {
			fmt.Printf("  (%s)", sec.Details)
		}
		fmt.Println()
	}
}
