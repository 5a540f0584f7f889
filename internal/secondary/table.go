package secondary

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
	"repro/internal/version"
)

// Extract derives the indexed attribute value from one primary row.
// Returning false leaves the row out of that secondary index (a partial
// index) — deletes and updates handle the absence symmetrically.
type Extract func(pk, value []byte) (attr []byte, ok bool)

// Def declares one secondary index over a table.
type Def struct {
	// Attr names the indexed attribute; it is the RootRef.Name the
	// co-commit records and the key the query planner routes by.
	Attr string
	// Extract derives the attribute value from a row. Required.
	Extract Extract
	// New builds an empty index of the class backing this secondary over
	// the repo's store. Required. Any of the five core.Index classes
	// works; classes that cannot prune range scans (the hash-partitioned
	// MBT) stay correct but cannot bound narrow-query node reads.
	New func(s store.Store) (core.Index, error)
}

// Table binds a primary index and its secondary indexes to one
// version.Repo branch. Mutations maintain every secondary
// tombstone-correctly in memory; Commit records all roots atomically in
// one commit (the primary as Commit.Root, the secondaries as a
// root-of-roots trailer — version.RootRef — in Commit.Meta).
//
// Table is single-writer: one goroutine calls the mutating methods.
// The index values it hands out are immutable and safe to read
// concurrently, like every core.Index version.
type Table struct {
	repo       *version.Repo
	branch     string
	newPrimary func(s store.Store) (core.Index, error)
	// head is the commit the state derives from: hash.Null for a branch
	// that did not exist yet. It is Commit's expected parent.
	head hash.Hash

	primary core.Index
	defs    []Def
	secs    []core.Index
}

// ErrNoDef reports a secondary lookup for an attribute the table does not
// index.
var ErrNoDef = errors.New("secondary: attribute not indexed")

// Open binds (or creates) the table state on branch: it is At the
// branch's current head, or the empty table when the branch does not
// exist yet, in which case the first Commit creates it. The repo must have
// a Loader registered for every index class involved.
func Open(repo *version.Repo, branch string, newPrimary func(s store.Store) (core.Index, error), defs ...Def) (*Table, error) {
	if branch == "" {
		return nil, errors.New("secondary: empty branch name")
	}
	for _, d := range defs {
		if d.Attr == "" || d.Extract == nil || d.New == nil {
			return nil, fmt.Errorf("secondary: def %q needs Attr, Extract and New", d.Attr)
		}
	}
	t := &Table{repo: repo, branch: branch, newPrimary: newPrimary, defs: append([]Def(nil), defs...)}
	head, _ := repo.Head(branch)
	return t.At(head)
}

// At returns the table state head records, leaving t unchanged; head is a
// commit on the table's branch, the zero Commit for the empty table a new
// branch starts from. The primary is checked out from head and each
// secondary loaded from the head's RootRefs trailer; a secondary the head
// does not record — a Def added after data was committed — is backfilled
// by one scan of the primary. At is how a writer whose Commit failed with
// version.ErrHeadMoved or version.ErrCommitRaced re-derives the table from
// a fresh head before re-applying its mutations.
func (t *Table) At(head version.Commit) (*Table, error) {
	n := &Table{repo: t.repo, branch: t.branch, newPrimary: t.newPrimary, head: head.ID, defs: t.defs}
	hasHead := !head.ID.IsNull()
	var err error
	if hasHead {
		if n.primary, err = t.repo.Checkout(head.ID); err != nil {
			return nil, fmt.Errorf("secondary: open primary: %w", err)
		}
	} else if n.primary, err = t.newPrimary(t.repo.Store()); err != nil {
		return nil, fmt.Errorf("secondary: new primary: %w", err)
	}
	refs := version.MetaRoots(head)
	n.secs = make([]core.Index, len(t.defs))
	for i, d := range t.defs {
		var found *version.RootRef
		for j := range refs {
			if refs[j].Name == d.Attr {
				found = &refs[j]
				break
			}
		}
		if found != nil {
			sec, err := t.repo.LoadRoot(found.Class, found.Root, found.Height)
			if err != nil {
				return nil, fmt.Errorf("secondary: open %q: %w", d.Attr, err)
			}
			n.secs[i] = sec
			continue
		}
		sec, err := d.New(t.repo.Store())
		if err != nil {
			return nil, fmt.Errorf("secondary: new %q: %w", d.Attr, err)
		}
		if hasHead {
			sec, err = backfill(sec, n.primary, d)
			if err != nil {
				return nil, fmt.Errorf("secondary: backfill %q: %w", d.Attr, err)
			}
		}
		n.secs[i] = sec
	}
	return n, nil
}

// backfill populates a fresh secondary from the current primary contents
// — the migration path for a Def declared after the branch already holds
// data.
func backfill(sec core.Index, primary core.Index, d Def) (core.Index, error) {
	var derived []core.Entry
	if err := primary.Iterate(func(k, v []byte) bool {
		if av, ok := d.Extract(k, v); ok {
			derived = append(derived, core.Entry{Key: EncodeKey(d.Attr, av, k)})
		}
		return true
	}); err != nil {
		return nil, err
	}
	return sec.PutBatch(derived)
}

// Repo returns the repo the table commits to.
func (t *Table) Repo() *version.Repo { return t.repo }

// Branch returns the branch the table commits to.
func (t *Table) Branch() string { return t.branch }

// Primary returns the current (uncommitted) primary index version.
func (t *Table) Primary() core.Index { return t.primary }

// Defs returns the table's secondary definitions in declaration order.
func (t *Table) Defs() []Def { return t.defs }

// Secondary returns the current index version backing one attribute.
func (t *Table) Secondary(attr string) (core.Index, bool) {
	for i, d := range t.defs {
		if d.Attr == attr {
			return t.secs[i], true
		}
	}
	return nil, false
}

// Get reads one row from the primary.
func (t *Table) Get(key []byte) ([]byte, bool, error) { return t.primary.Get(key) }

// Put writes one row, maintaining every secondary: when the derived
// attribute changes (or appears, or disappears), the old composite key is
// deleted and the new one inserted — never both for an unchanged
// attribute, so a plain overwrite costs no secondary churn.
func (t *Table) Put(key, value []byte) error {
	old, hadOld, err := t.primary.Get(key)
	if err != nil {
		return err
	}
	next, err := t.primary.Put(key, value)
	if err != nil {
		return err
	}
	secs := make([]core.Index, len(t.secs))
	copy(secs, t.secs)
	for i, d := range t.defs {
		secs[i], err = maintain(secs[i], d, key, old, hadOld, value, true)
		if err != nil {
			return err
		}
	}
	t.primary, t.secs = next, secs
	return nil
}

// Delete removes one row, removing its derived keys from every
// secondary.
func (t *Table) Delete(key []byte) error {
	old, hadOld, err := t.primary.Get(key)
	if err != nil {
		return err
	}
	if !hadOld {
		return nil
	}
	next, err := t.primary.Delete(key)
	if err != nil {
		return err
	}
	secs := make([]core.Index, len(t.secs))
	copy(secs, t.secs)
	for i, d := range t.defs {
		secs[i], err = maintain(secs[i], d, key, old, true, nil, false)
		if err != nil {
			return err
		}
	}
	t.primary, t.secs = next, secs
	return nil
}

// maintain applies one row transition (old → new, hasNew false for a
// delete) to one secondary index.
func maintain(sec core.Index, d Def, pk, old []byte, hadOld bool, val []byte, hasNew bool) (core.Index, error) {
	var oldAv, newAv []byte
	var oldOK, newOK bool
	if hadOld {
		oldAv, oldOK = d.Extract(pk, old)
	}
	if hasNew {
		newAv, newOK = d.Extract(pk, val)
	}
	if oldOK && newOK && bytes.Equal(oldAv, newAv) {
		return sec, nil
	}
	var err error
	if oldOK {
		if sec, err = sec.Delete(EncodeKey(d.Attr, oldAv, pk)); err != nil {
			return nil, err
		}
	}
	if newOK {
		if sec, err = sec.Put(EncodeKey(d.Attr, newAv, pk), []byte{}); err != nil {
			return nil, err
		}
	}
	return sec, nil
}

// PutBatch applies one batch of rows with the canonical batch semantics
// (duplicates collapse last-wins, nil values normalize to empty), keeping
// every secondary consistent. The primary takes the batch through its
// PutBatch fast path; each secondary takes the net derived-key deletions
// and insertions.
func (t *Table) PutBatch(entries []core.Entry) error {
	if err := core.ValidateEntries(entries); err != nil {
		return err
	}
	norm := core.SortEntries(entries)
	if len(norm) == 0 {
		return nil
	}
	dels := make([][][]byte, len(t.defs))
	puts := make([][]core.Entry, len(t.defs))
	for _, e := range norm {
		if len(t.defs) == 0 {
			break // no secondary to maintain: skip the old-value reads
		}
		old, hadOld, err := t.primary.Get(e.Key)
		if err != nil {
			return err
		}
		for i, d := range t.defs {
			var oldAv, newAv []byte
			var oldOK bool
			if hadOld {
				oldAv, oldOK = d.Extract(e.Key, old)
			}
			newAv, newOK := d.Extract(e.Key, e.Value)
			if oldOK && newOK && bytes.Equal(oldAv, newAv) {
				continue
			}
			if oldOK {
				dels[i] = append(dels[i], EncodeKey(d.Attr, oldAv, e.Key))
			}
			if newOK {
				puts[i] = append(puts[i], core.Entry{Key: EncodeKey(d.Attr, newAv, e.Key)})
			}
		}
	}
	next, err := t.primary.PutBatch(norm)
	if err != nil {
		return err
	}
	secs := make([]core.Index, len(t.secs))
	copy(secs, t.secs)
	for i := range t.defs {
		for _, k := range dels[i] {
			if secs[i], err = secs[i].Delete(k); err != nil {
				return err
			}
		}
		if secs[i], err = secs[i].PutBatch(puts[i]); err != nil {
			return err
		}
	}
	t.primary, t.secs = next, secs
	return nil
}

// RootRefs returns the root-of-roots trailer the next Commit will record:
// one RootRef per secondary, in Def order.
func (t *Table) RootRefs() []version.RootRef {
	refs := make([]version.RootRef, len(t.defs))
	for i, d := range t.defs {
		refs[i] = version.RootRef{
			Name:  d.Attr,
			Class: t.secs[i].Name(),
			Root:  t.secs[i].RootHash(),
		}
		if h, ok := t.secs[i].(interface{ Height() int }); ok {
			refs[i].Height = h.Height()
		}
	}
	return refs
}

// Commit records the current primary and every secondary root in one
// commit on the table's branch — the atomic co-commit: either the head
// advances with all roots or it does not advance at all. The returned
// commit's Meta decodes via version.DecodeRootRefs. With no Defs the
// commit carries no metadata and is exactly a plain Repo.Commit.
//
// The commit is guarded by the head the table state derives from (see
// version.Repo.CommitOnto). On version.ErrHeadMoved (another writer
// advanced the branch) or version.ErrCommitRaced (the commit lost its
// pages to a concurrent GC pass) nothing is recorded and the table's
// in-memory state is unchanged but stale: re-derive it with At on the
// current head (or Open) and re-apply the mutations.
func (t *Table) Commit(message string) (version.Commit, error) {
	c, err := t.repo.CommitOnto(t.branch, t.head, t.primary, message, version.EncodeRootRefs(t.RootRefs()))
	if !c.ID.IsNull() { // recorded, even if persisting the head failed
		t.head = c.ID
	}
	return c, err
}
