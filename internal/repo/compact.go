package repo

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"vani/internal/trace"
)

// packMagic heads every pack file; member offsets start right after it.
var packMagic = []byte("VANIPACK")

// CompactNow merges every shard holding at least CompactMinFiles loose
// traces into one consolidated pack per shard. Each member is rewritten
// into flate-wrapped VANITRC2 v2.2 at the default block geometry
// (trace.BlockReader.WriteCompressed), byte for byte what the writer's
// flate mode makes of its events when the cost model wrote it. Returns the
// number of traces packed. A shard whose pack fails stays loose, the other
// shards are packed all the same, and the shards' errors come back joined.
// A member whose rewrite fails as trace.ErrBadFormat is set aside for the
// life of the Repo: it stays loose and readable, the rest of its shard is
// packed in the same round when at least CompactMinFiles members remain,
// and later rounds skip it.
// The pack file reaches disk and is fsynced before the manifest records
// it; loose originals are removed only after the record — or, when scans
// still pin them, at the last release.
func (r *Repo) CompactNow() (int, error) {
	if r.opt.ReadOnly {
		return 0, ErrReadOnly
	}
	type group struct {
		key     string
		members []*Entry
	}
	r.mu.Lock()
	byShard := make(map[string][]*Entry)
	for _, e := range r.entries {
		if e.Pack == "" && !r.setAside[e.SHA] {
			k := e.Workload + "/" + e.Bucket
			byShard[k] = append(byShard[k], e)
		}
	}
	groups := make([]group, 0, len(byShard))
	for k, ms := range byShard {
		if len(ms) < r.opt.CompactMinFiles {
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].SHA < ms[j].SHA })
		groups = append(groups, group{key: k, members: ms})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	r.mu.Unlock()

	packed := 0
	var errs []error
	for _, g := range groups {
		for ms := g.members; ; {
			n, err := r.packShard(ms)
			packed += n
			if err == nil {
				break
			}
			errs = append(errs, err)
			r.mu.Lock()
			rest := slices.DeleteFunc(slices.Clone(ms), func(e *Entry) bool { return r.setAside[e.SHA] })
			r.mu.Unlock()
			if len(rest) == len(ms) || len(rest) < r.opt.CompactMinFiles {
				break
			}
			ms = rest
		}
	}
	return packed, errors.Join(errs...)
}

// packShard builds one pack from the sha-sorted loose members of a shard.
func (r *Repo) packShard(members []*Entry) (int, error) {
	nameHash := sha256.New()
	for _, e := range members {
		nameHash.Write([]byte(e.SHA))
	}
	rel := filepath.Join("packs", "p-"+hex.EncodeToString(nameHash.Sum(nil))[:16]+".vpk")
	abs := r.packPath(rel)

	// Rewrite the members outside the lock; Add/Acquire stay live.
	tmp := filepath.Join(r.tmpDir(), filepath.Base(rel)+".part")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("repo: compact: %w", err)
	}
	recs, size, err := r.writePack(f, members)
	if err == nil && recs != nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("repo: compact: %w", err)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("repo: compact: %w", cerr)
	}
	if err != nil || recs == nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, abs); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("repo: compact: %w", err)
	}
	if r.hookAfterPackRename != nil {
		if err := r.hookAfterPackRename(); err != nil {
			return 0, err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	// Members may have been dropped while we rewrote; the pack is only
	// recorded if every member is still loose, else it becomes an orphan
	// the next boot (or the remove below) cleans up.
	for _, m := range members {
		cur, ok := r.entries[m.SHA]
		if !ok || cur.Pack != "" {
			os.Remove(abs)
			return 0, nil
		}
	}
	if err := r.appendRecLocked(manifestRec{Op: opPack, Pack: rel, Members: recs}); err != nil {
		os.Remove(abs)
		return 0, err
	}
	for i, m := range members {
		loose := r.loosePath(m)
		m.Pack, m.Off, m.Size = rel, recs[i].Off, recs[i].Len
		r.doomLocked(loose)
	}
	r.packBytes[rel] = size
	r.packLive[rel] = len(members)
	r.compactions++
	return len(members), nil
}

// writePack streams the pack magic and then each member, rewritten by
// WriteCompressed, into w, and returns the members' directory and the
// pack's size. Nil records with no error mean a member left the shard (GC
// raced the compactor): the shard is skipped this round rather than packed
// in part. A member that fails as trace.ErrBadFormat is set aside.
func (r *Repo) writePack(w io.Writer, members []*Entry) ([]packMember, int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(packMagic)
	off := int64(len(packMagic))
	recs := make([]packMember, 0, len(members))
	for _, e := range members {
		br, err := trace.OpenBlockReader(r.loosePath(e))
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, nil
		}
		var n int64
		if err == nil {
			n, err = br.WriteCompressed(bw)
			br.Close()
		}
		if err != nil {
			if errors.Is(err, trace.ErrBadFormat) {
				r.mu.Lock()
				r.setAside[e.SHA] = true
				r.mu.Unlock()
			}
			return nil, 0, fmt.Errorf("repo: compact %s: %w", e.SHA, err)
		}
		recs = append(recs, packMember{SHA: e.SHA, Off: off, Len: n})
		off += n
	}
	if err := bw.Flush(); err != nil {
		return nil, 0, fmt.Errorf("repo: compact: %w", err)
	}
	return recs, off, nil
}

// GC enforces the retention policy: traces older than RetainAge go
// first, then the oldest survivors (upload time, SHA tie-break) until
// RetainCount and RetainBytes are both satisfied. Backing files shared
// with pinned scans are removed at the last release. Returns the number
// of traces dropped.
func (r *Repo) GC() (int, error) {
	if r.opt.ReadOnly {
		return 0, ErrReadOnly
	}
	if r.opt.RetainAge <= 0 && r.opt.RetainCount <= 0 && r.opt.RetainBytes <= 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	drop := make(map[string]bool)
	if r.opt.RetainAge > 0 {
		cutoff := r.now().UTC().Add(-r.opt.RetainAge).Unix()
		for sha, e := range r.entries {
			if e.Added < cutoff {
				drop[sha] = true
			}
		}
	}
	if r.opt.RetainCount > 0 || r.opt.RetainBytes > 0 {
		live := make([]*Entry, 0, len(r.entries))
		var total int64
		for sha, e := range r.entries {
			if !drop[sha] {
				live = append(live, e)
				total += e.Size
			}
		}
		sort.Slice(live, func(i, j int) bool {
			if live[i].Added != live[j].Added {
				return live[i].Added < live[j].Added
			}
			return live[i].SHA < live[j].SHA
		})
		for len(live) > 0 &&
			((r.opt.RetainCount > 0 && len(live) > r.opt.RetainCount) ||
				(r.opt.RetainBytes > 0 && total > r.opt.RetainBytes)) {
			drop[live[0].SHA] = true
			total -= live[0].Size
			live = live[1:]
		}
	}
	doomed := make([]string, 0, len(drop))
	for sha := range drop {
		doomed = append(doomed, sha)
	}
	sort.Strings(doomed)
	for _, sha := range doomed {
		e := r.entries[sha]
		if err := r.appendRecLocked(manifestRec{Op: opDrop, SHA: sha}); err != nil {
			return 0, err
		}
		delete(r.entries, sha)
		if e.Pack == "" {
			r.doomLocked(r.loosePath(e))
			continue
		}
		if r.packLive[e.Pack]--; r.packLive[e.Pack] <= 0 {
			delete(r.packLive, e.Pack)
			delete(r.packBytes, e.Pack)
			r.doomLocked(r.packPath(e.Pack))
		}
	}
	return len(doomed), nil
}

func (r *Repo) compactLoop() {
	defer close(r.done)
	t := time.NewTicker(r.opt.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if _, err := r.CompactNow(); err != nil {
				fmt.Fprintf(os.Stderr, "vanid: repo compaction: %v\n", err)
			}
			if _, err := r.GC(); err != nil {
				fmt.Fprintf(os.Stderr, "vanid: repo gc: %v\n", err)
			}
		}
	}
}
