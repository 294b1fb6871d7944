package durability

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/incremental"
)

const (
	snapMagic   = "mariohsnap"
	snapVersion = 1
)

// ErrStorage marks durability failures caused by the backing store (disk
// full, permissions, I/O) rather than the caller; the server maps it to
// HTTP 500. Recoverable corruption is handled internally and never
// surfaces as an error.
var ErrStorage = errors.New("durability: storage")

// WriteFileAtomic writes path through a temp file in the same directory
// followed by an atomic rename, so readers never observe a half-written
// file. Snapshots, mariohd's session metadata and its model registry all
// write through it. With fsync set, the data and the directory entry are
// forced to disk before returning, making the swap survive power loss.
// Every failure wraps ErrStorage.
func WriteFileAtomic(path string, fsync bool, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if fsync {
		if err := tmp.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if fsync {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	return nil
}

// A snapshot is a line-oriented text file in two checksummed sections:
//
//	mariohsnap 1
//	state <applies> <fp 16-hex>      ─┐ graph section
//	graph <numNodes> <numEdges>       │
//	e <u> <v> <w>        × numEdges   │
//	crc <8-hex>                      ─┘
//	comps <count>                    ─┐ cache section
//	c <key> <id 16-hex>  × count      │
//	cache <count>                     │
//	h <id 16-hex> <filtered> <lines>  │ per cached component result
//	x <mult> <node>...   × lines      │
//	crc <8-hex>                      ─┘
//
// The id joins a component's c line (keyed by its smallest node) to its
// h entry. Snapshots written now use the component key itself as the id;
// older ones carry the component's content fingerprint there, and both
// restore (see incremental.Restore).
//
// Each crc line is the CRC-32C of every preceding line of its section
// (including trailing newlines), computed incrementally during both
// writing and parsing. The two sections fail independently: a corrupt
// cache section with an intact graph section degrades to a graph-only
// restore (caches rebuild on the next Apply), while a corrupt graph
// section fails the whole snapshot and recovery falls back to an older
// one.

// crcLiner writes lines while hashing exactly the bytes emitted, so the
// section checksum needs no offset bookkeeping.
type crcLiner struct {
	w   *bufio.Writer
	crc uint32
	err error
}

func (cl *crcLiner) line(format string, args ...any) {
	if cl.err != nil {
		return
	}
	s := fmt.Sprintf(format, args...) + "\n"
	cl.crc = crc32.Update(cl.crc, castagnoli, []byte(s))
	_, cl.err = cl.w.WriteString(s)
}

// crcLine closes the current section: the checksum line itself is not
// part of any checksum, and the accumulator resets for the next section.
func (cl *crcLiner) crcLine() {
	if cl.err != nil {
		return
	}
	_, cl.err = fmt.Fprintf(cl.w, "crc %08x\n", cl.crc)
	cl.crc = 0
}

// writeSnapshot serializes an engine state with its whole-graph
// fingerprint.
func writeSnapshot(w io.Writer, st *incremental.EngineState, fp uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d\n", snapMagic, snapVersion); err != nil {
		return err
	}
	cl := &crcLiner{w: bw}
	cl.line("state %d %016x", st.Applies, fp)
	edges := st.Graph.Edges()
	cl.line("graph %d %d", st.Graph.NumNodes(), len(edges))
	for _, e := range edges {
		cl.line("e %d %d %d", e.U, e.V, e.W)
	}
	cl.crcLine()
	cl.line("comps %d", len(st.Comps))
	for _, c := range st.Comps {
		cl.line("c %d %016x", c.Key, c.FP)
	}
	cl.line("cache %d", len(st.Entries))
	for _, en := range st.Entries {
		lines := entryLines(en.Rec)
		cl.line("h %016x %d %d", en.FP, en.Filtered, len(lines))
		for _, l := range lines {
			cl.line("x %s", l)
		}
	}
	cl.crcLine()
	if cl.err != nil {
		return cl.err
	}
	return bw.Flush()
}

// entryLines renders one cached hypergraph as "mult node node..." lines,
// sorted by node set for a canonical encoding. The hypergraph's own node
// count is not stored: cached results merge through AddMult, which only
// reads the edges.
func entryLines(rec *hypergraph.Hypergraph) []string {
	type em struct {
		nodes []int
		mult  int
	}
	edges := make([]em, 0, rec.NumUnique())
	rec.Each(func(nodes []int, mult int) {
		edges = append(edges, em{nodes: nodes, mult: mult})
	})
	slices.SortFunc(edges, func(a, b em) int { return slices.Compare(a.nodes, b.nodes) })
	out := make([]string, len(edges))
	for i, e := range edges {
		var sb strings.Builder
		sb.WriteString(strconv.Itoa(e.mult))
		for _, u := range e.nodes {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(u))
		}
		out[i] = sb.String()
	}
	return out
}

// snapScanner reads lines while mirroring the writer's checksum.
type snapScanner struct {
	sc     *bufio.Scanner
	crc    uint32
	lineNo int
}

// next returns the next line, folding it into the running section
// checksum (with the newline the writer emitted and the scanner strips).
func (r *snapScanner) next() (string, bool) {
	line, ok := r.raw()
	if ok {
		r.crc = crc32.Update(r.crc, castagnoli, []byte(line))
		r.crc = crc32.Update(r.crc, castagnoli, []byte{'\n'})
	}
	return line, ok
}

// raw returns the next line without hashing it (header and crc lines).
func (r *snapScanner) raw() (string, bool) {
	if !r.sc.Scan() {
		return "", false
	}
	r.lineNo++
	return r.sc.Text(), true
}

// checkCRC consumes a "crc" line, compares it against the accumulated
// section checksum, and resets the accumulator.
func (r *snapScanner) checkCRC() error {
	line, ok := r.raw()
	if !ok {
		return fmt.Errorf("line %d: missing crc line", r.lineNo+1)
	}
	f := strings.Fields(line)
	if len(f) != 2 || f[0] != "crc" {
		return fmt.Errorf("line %d: want crc line, got %q", r.lineNo, line)
	}
	want, err := strconv.ParseUint(f[1], 16, 32)
	if err != nil {
		return fmt.Errorf("line %d: bad crc %q", r.lineNo, f[1])
	}
	if uint32(want) != r.crc {
		return fmt.Errorf("line %d: section crc mismatch", r.lineNo)
	}
	r.crc = 0
	return nil
}

// fields splits a hashed line and checks its tag and arity.
func (r *snapScanner) fields(tag string, n int) ([]string, error) {
	line, ok := r.next()
	if !ok {
		return nil, fmt.Errorf("line %d: unexpected end of snapshot (want %q)", r.lineNo+1, tag)
	}
	f := strings.Fields(line)
	if len(f) != n || f[0] != tag {
		return nil, fmt.Errorf("line %d: want %q line with %d fields, got %q", r.lineNo, tag, n, line)
	}
	return f, nil
}

func parseInt(s string) (int, error)   { return strconv.Atoi(s) }
func parseFP(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad count %q", s)
	}
	return n, nil
}

// readSnapshot parses a snapshot. On success it returns the restorable
// state and the recorded whole-graph fingerprint. cacheDropped reports
// that the cache section was damaged and only the graph section was
// restored (Comps and Entries empty — correct, just slower). An error
// means the snapshot is unusable.
func readSnapshot(rd io.Reader) (st *incremental.EngineState, fp uint64, cacheDropped bool, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	r := &snapScanner{sc: sc}

	line, ok := r.raw()
	if !ok {
		return nil, 0, false, errors.New("durability: snapshot: empty file")
	}
	if line != fmt.Sprintf("%s %d", snapMagic, snapVersion) {
		return nil, 0, false, fmt.Errorf("durability: snapshot: unsupported header %q", line)
	}

	st, fp, err = readGraphSection(r)
	if err != nil {
		return nil, 0, false, fmt.Errorf("durability: snapshot: %v", err)
	}
	if err := readCacheSection(r, st); err != nil {
		st.Comps, st.Entries = nil, nil
		return st, fp, true, nil
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, false, fmt.Errorf("durability: snapshot: %v", serr)
	}
	return st, fp, false, nil
}

func readGraphSection(r *snapScanner) (*incremental.EngineState, uint64, error) {
	f, err := r.fields("state", 3)
	if err != nil {
		return nil, 0, err
	}
	applies, err := parseInt(f[1])
	if err != nil || applies < 0 {
		return nil, 0, fmt.Errorf("line %d: bad applies %q", r.lineNo, f[1])
	}
	fp, err := parseFP(f[2])
	if err != nil || len(f[2]) != 16 {
		return nil, 0, fmt.Errorf("line %d: bad fingerprint %q", r.lineNo, f[2])
	}
	f, err = r.fields("graph", 3)
	if err != nil {
		return nil, 0, err
	}
	numNodes, err1 := parseCount(f[1])
	numEdges, err2 := parseCount(f[2])
	if err1 != nil || err2 != nil {
		return nil, 0, fmt.Errorf("line %d: bad graph header", r.lineNo)
	}
	g := graph.New(numNodes)
	for i := 0; i < numEdges; i++ {
		ef, err := r.fields("e", 4)
		if err != nil {
			return nil, 0, err
		}
		u, err1 := parseInt(ef[1])
		v, err2 := parseInt(ef[2])
		w, err3 := parseInt(ef[3])
		if err1 != nil || err2 != nil || err3 != nil ||
			u < 0 || v < 0 || u == v || u >= numNodes || v >= numNodes || w <= 0 {
			return nil, 0, fmt.Errorf("line %d: bad edge", r.lineNo)
		}
		g.AddWeight(u, v, w)
	}
	if err := r.checkCRC(); err != nil {
		return nil, 0, err
	}
	return &incremental.EngineState{Graph: g, Applies: applies}, fp, nil
}

func readCacheSection(r *snapScanner, st *incremental.EngineState) error {
	f, err := r.fields("comps", 2)
	if err != nil {
		return err
	}
	nComps, err := parseCount(f[1])
	if err != nil {
		return fmt.Errorf("line %d: %v", r.lineNo, err)
	}
	for i := 0; i < nComps; i++ {
		cf, err := r.fields("c", 3)
		if err != nil {
			return err
		}
		key, err1 := parseInt(cf[1])
		cfp, err2 := parseFP(cf[2])
		if err1 != nil || err2 != nil || key < 0 {
			return fmt.Errorf("line %d: bad comp line", r.lineNo)
		}
		st.Comps = append(st.Comps, incremental.CompFP{Key: key, FP: cfp})
	}
	f, err = r.fields("cache", 2)
	if err != nil {
		return err
	}
	nEntries, err := parseCount(f[1])
	if err != nil {
		return fmt.Errorf("line %d: %v", r.lineNo, err)
	}
	for i := 0; i < nEntries; i++ {
		hf, err := r.fields("h", 4)
		if err != nil {
			return err
		}
		efp, err1 := parseFP(hf[1])
		filtered, err2 := parseInt(hf[2])
		nLines, err3 := parseCount(hf[3])
		if err1 != nil || err2 != nil || err3 != nil || filtered < 0 {
			return fmt.Errorf("line %d: bad cache entry header", r.lineNo)
		}
		rec := hypergraph.New(0)
		for j := 0; j < nLines; j++ {
			xl, ok := r.next()
			if !ok {
				return fmt.Errorf("line %d: unexpected end of cache entry", r.lineNo+1)
			}
			xf := strings.Fields(xl)
			if len(xf) < 3 || xf[0] != "x" {
				return fmt.Errorf("line %d: bad cache edge line", r.lineNo)
			}
			mult, err := parseInt(xf[1])
			if err != nil || mult <= 0 {
				return fmt.Errorf("line %d: bad multiplicity", r.lineNo)
			}
			nodes := make([]int, len(xf)-2)
			for k, s := range xf[2:] {
				u, err := parseInt(s)
				if err != nil || u < 0 {
					return fmt.Errorf("line %d: bad node id", r.lineNo)
				}
				nodes[k] = u
			}
			rec.AddMult(nodes, mult)
		}
		st.Entries = append(st.Entries, incremental.CacheEntry{FP: efp, Filtered: filtered, Rec: rec})
	}
	return r.checkCRC()
}

// readSnapshotFile opens and parses one snapshot file.
func readSnapshotFile(path string) (*incremental.EngineState, uint64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	return readSnapshot(f)
}
