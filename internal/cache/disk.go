package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Disk is a content-addressed blob store: opaque byte values filed
// under their canonical key, written atomically (temp file, fsync,
// rename) so a reader — including one racing a crash — never observes
// a torn blob. It is the optional persistence layer under an LRU: the
// msd daemon colocates one with its journal so cached verdicts survive
// a restart.
type Disk struct {
	dir string
}

// NewDisk opens (creating as needed) a blob store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk dir: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// path shards blobs by the first key byte to keep directories shallow.
func (d *Disk) path(key string) (string, error) {
	if len(key) < 3 || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("cache: unsafe key %q", key)
	}
	return filepath.Join(d.dir, key[:2], key+".bin"), nil
}

// Get returns the blob stored under key; ok is false when the key is
// absent. Errors are reserved for real I/O failures.
func (d *Disk) Get(key string) (data []byte, ok bool, err error) {
	p, err := d.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(p)
	switch {
	case err == nil:
		return data, true, nil
	case os.IsNotExist(err):
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cache: read %s: %w", key, err)
	}
}

// Put stores the blob under key, fsync'd before rename so an
// acknowledged entry survives the process dying at any later instant.
func (d *Disk) Put(key string, data []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("cache: shard dir: %w", err)
	}
	// Each writer gets its own temp file: two Puts of one key racing on
	// a shared name could interleave their bytes into a torn blob.
	f, err := os.CreateTemp(filepath.Dir(p), key+".*.tmp")
	if err != nil {
		return fmt.Errorf("cache: create temp for %s: %w", key, err)
	}
	tmp := f.Name()
	// CreateTemp makes the file 0600; a blob is as readable as before.
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cache: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cache: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache: rename %s: %w", tmp, err)
	}
	return nil
}
