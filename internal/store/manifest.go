package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A run manifest is the authoritative record of one recording run: its
// identity, wall-clock span, parameter-set hash, retention policy, sensor
// set and — most importantly — the ordered segment list with each
// segment's Merkle root chained to its predecessor. The manifest is
// rewritten atomically (tmp + rename + directory fsync) at run start, at
// every rotation, at retention and at close, so a crash leaves either the
// previous or the next manifest on disk, never a torn one. A manifest
// whose bytes are damaged anyway (bit rot, tampering) fails its trailing
// CRC and is reported by Verify rather than trusted.
const (
	manMagic   = "EBSM"
	manVersion = 1

	// Manifest flags.
	manFinalized = 1 << 0 // run closed (or recovered); segment list is final
	manRecovered = 1 << 1 // finalized by crash recovery, not a clean Close

	// Segment entry states.
	segOpen    = 0 // being appended to (only the last entry of an open run)
	segSealed  = 1 // immutable, root computed, data + index on disk
	segExpired = 2 // tombstone: files deleted by retention, root retained

	// maxManifestSegments bounds the decoded segment list so arbitrary
	// bytes are rejected rather than attempted as an allocation.
	maxManifestSegments = 1 << 20
	maxManifestSensors  = 1 << 20
)

// manifestSeg is one segment entry. For expired entries the data and
// index files are gone; Records, DataBytes, the time bounds and the
// root/chain pair survive here as the tombstone.
type manifestSeg struct {
	Seg          int
	State        uint8
	Records      int64
	DataBytes    int64
	MinEndUS     int64
	MaxEndUS     int64
	SealedWallUS int64
	Root         [hashSize]byte
	Chain        [hashSize]byte
}

// manifest is the in-memory form of a run manifest file.
type manifest struct {
	RunID       uint64
	Flags       uint8
	StartWallUS int64
	EndWallUS   int64
	ParamsHash  [hashSize]byte
	Retention   RetentionPolicy
	Sensors     []int
	Segments    []manifestSeg
}

func (m *manifest) finalized() bool { return m.Flags&manFinalized != 0 }
func (m *manifest) recovered() bool { return m.Flags&manRecovered != 0 }

// openSeg returns the index of the run's open segment entry, or -1.
func (m *manifest) openSeg() int {
	for i := range m.Segments {
		if m.Segments[i].State == segOpen {
			return i
		}
	}
	return -1
}

// addSensors merges ids into the manifest's sorted sensor set.
func (m *manifest) addSensors(ids []int) {
	set := make(map[int]struct{}, len(m.Sensors)+len(ids))
	for _, s := range m.Sensors {
		set[s] = struct{}{}
	}
	for _, s := range ids {
		set[s] = struct{}{}
	}
	m.Sensors = m.Sensors[:0]
	for s := range set {
		m.Sensors = append(m.Sensors, s)
	}
	sort.Ints(m.Sensors)
}

// manifestName returns the manifest file name of run id.
func manifestName(id uint64) string { return fmt.Sprintf("run-%08d.mf", id) }

var manNameRE = regexp.MustCompile(`^run-(\d{8,20})\.mf$`)

// parseManifestName extracts the run id from a manifest file name.
func parseManifestName(name string) (uint64, bool) {
	m := manNameRE.FindStringSubmatch(filepath.Base(name))
	if m == nil {
		return 0, false
	}
	var id uint64
	if _, err := fmt.Sscanf(m[1], "%d", &id); err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

// marshalManifest serialises m. Layout after the 8-byte magic+version
// header (all little-endian):
//
//	u64 runID | u8 flags | u64 startWallUS | u64 endWallUS |
//	32B paramsHash | u64 retainAgeUS | u64 retainBytes |
//	u32 nSensors | nSensors × u32 |
//	u32 nSegments | nSegments × (u32 seg | u8 state | u64 records |
//	    u64 dataBytes | u64 minEndUS | u64 maxEndUS | u64 sealedWallUS |
//	    32B root | 32B chain) |
//	u32 CRC32(everything above)
func marshalManifest(m *manifest) []byte {
	dst := make([]byte, 0, 128+len(m.Sensors)*4+len(m.Segments)*109)
	dst = append(dst, manMagic...)
	dst = le.AppendUint32(dst, manVersion)
	dst = le.AppendUint64(dst, m.RunID)
	dst = append(dst, m.Flags)
	dst = le.AppendUint64(dst, uint64(m.StartWallUS))
	dst = le.AppendUint64(dst, uint64(m.EndWallUS))
	dst = append(dst, m.ParamsHash[:]...)
	dst = le.AppendUint64(dst, uint64(m.Retention.MaxAgeUS))
	dst = le.AppendUint64(dst, uint64(m.Retention.MaxBytes))
	dst = le.AppendUint32(dst, uint32(len(m.Sensors)))
	for _, s := range m.Sensors {
		dst = le.AppendUint32(dst, uint32(s))
	}
	dst = le.AppendUint32(dst, uint32(len(m.Segments)))
	for i := range m.Segments {
		e := &m.Segments[i]
		dst = le.AppendUint32(dst, uint32(e.Seg))
		dst = append(dst, e.State)
		dst = le.AppendUint64(dst, uint64(e.Records))
		dst = le.AppendUint64(dst, uint64(e.DataBytes))
		dst = le.AppendUint64(dst, uint64(e.MinEndUS))
		dst = le.AppendUint64(dst, uint64(e.MaxEndUS))
		dst = le.AppendUint64(dst, uint64(e.SealedWallUS))
		dst = append(dst, e.Root[:]...)
		dst = append(dst, e.Chain[:]...)
	}
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// unmarshalManifest parses a manifest file, verifying the trailing CRC.
// Every length is bounds-checked so arbitrary bytes yield ErrCorrupt,
// never a panic (FuzzManifestDecoder pins this down).
func unmarshalManifest(p []byte) (*manifest, error) {
	const fixed = 8 + 8 + 1 + 8 + 8 + hashSize + 8 + 8 + 4
	if len(p) < fixed+4+4 || string(p[:4]) != manMagic {
		return nil, fmt.Errorf("%w: bad manifest header", ErrCorrupt)
	}
	if v := le.Uint32(p[4:]); v != manVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", v)
	}
	body, sum := p[:len(p)-4], le.Uint32(p[len(p)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	m := &manifest{}
	b := body[8:]
	m.RunID = le.Uint64(b)
	m.Flags = b[8]
	m.StartWallUS = int64(le.Uint64(b[9:]))
	m.EndWallUS = int64(le.Uint64(b[17:]))
	copy(m.ParamsHash[:], b[25:])
	b = b[25+hashSize:]
	m.Retention.MaxAgeUS = int64(le.Uint64(b))
	m.Retention.MaxBytes = int64(le.Uint64(b[8:]))
	nSensors := int(le.Uint32(b[16:]))
	b = b[20:]
	if nSensors < 0 || nSensors > maxManifestSensors || len(b) < nSensors*4+4 {
		return nil, fmt.Errorf("%w: truncated manifest sensor list", ErrCorrupt)
	}
	if nSensors > 0 {
		m.Sensors = make([]int, nSensors)
		for i := range m.Sensors {
			m.Sensors[i] = int(le.Uint32(b[i*4:]))
		}
	}
	b = b[nSensors*4:]
	nSegs := int(le.Uint32(b))
	b = b[4:]
	const entryLen = 4 + 1 + 8*5 + hashSize*2
	if nSegs < 0 || nSegs > maxManifestSegments || len(b) != nSegs*entryLen {
		return nil, fmt.Errorf("%w: truncated manifest segment list", ErrCorrupt)
	}
	if nSegs > 0 {
		m.Segments = make([]manifestSeg, nSegs)
		for i := range m.Segments {
			e := &m.Segments[i]
			e.Seg = int(le.Uint32(b))
			e.State = b[4]
			if e.State > segExpired {
				return nil, fmt.Errorf("%w: bad segment state %d in manifest", ErrCorrupt, e.State)
			}
			e.Records = int64(le.Uint64(b[5:]))
			e.DataBytes = int64(le.Uint64(b[13:]))
			e.MinEndUS = int64(le.Uint64(b[21:]))
			e.MaxEndUS = int64(le.Uint64(b[29:]))
			e.SealedWallUS = int64(le.Uint64(b[37:]))
			copy(e.Root[:], b[45:])
			copy(e.Chain[:], b[45+hashSize:])
			b = b[entryLen:]
		}
	}
	return m, nil
}

// writeManifestFile atomically replaces run m.RunID's manifest: the new
// bytes are written to a temporary file, fsynced, renamed over the old
// manifest, and the directory fsynced so the rename survives a crash.
func writeManifestFile(dir string, m *manifest) error {
	path := filepath.Join(dir, manifestName(m.RunID))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(marshalManifest(m)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write manifest %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: sync manifest %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close manifest %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename manifest: %w", err)
	}
	return syncDir(dir)
}

// removeManifestFile deletes run id's manifest (used when an empty run is
// discarded) and fsyncs the directory.
func removeManifestFile(dir string, id uint64) error {
	if err := os.Remove(filepath.Join(dir, manifestName(id))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// loadManifests reads every run manifest in dir, ascending by run id.
// Unparseable manifests are returned as problems (file name + reason),
// not errors: readers degrade to treating their segments as an
// unverifiable legacy group, and Verify reports them as tampered. Only
// I/O failures return an error. Stray .tmp files from a crashed atomic
// rewrite are ignored (the writer removes them on Open).
func loadManifests(dir string) (mans []*manifest, problems []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	for _, e := range entries {
		id, ok := parseManifestName(e.Name())
		if !ok {
			continue
		}
		raw, rerr := os.ReadFile(filepath.Join(dir, e.Name()))
		if rerr != nil {
			return nil, nil, fmt.Errorf("store: %w", rerr)
		}
		m, merr := unmarshalManifest(raw)
		if merr != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", e.Name(), merr))
			continue
		}
		if m.RunID != id {
			problems = append(problems, fmt.Sprintf("%s: declares run %d", e.Name(), m.RunID))
			continue
		}
		mans = append(mans, m)
	}
	sort.Slice(mans, func(i, j int) bool { return mans[i].RunID < mans[j].RunID })
	return mans, problems, nil
}

// removeStrayTemps deletes leftover manifest .tmp files from a crashed
// atomic rewrite (writer-side housekeeping on Open).
func removeStrayTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mf.tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
