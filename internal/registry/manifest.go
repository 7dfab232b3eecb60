package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk registry layout:
//
//	<root>/<name>/v<N>/manifest.json
//	<root>/<name>/v<N>/<weights file named by Manifest.File>
//
// Each version directory is immutable once written; publishing a new version
// of a name creates the next v<N+1> directory. Trainers write manifests with
// the checksum produced by the checksummed save path (vit.SaveFileSum);
// loaders re-hash while reading and refuse mismatches, so a truncated or
// corrupted artifact can never be published into the routing snapshot.

// ManifestFile is the fixed name of the per-version metadata file.
const ManifestFile = "manifest.json"

// Manifest is the serialized metadata of one published artifact version.
type Manifest struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Kind     string `json:"kind"` // Kind.String() form
	Task     string `json:"task,omitempty"`
	Checksum string `json:"checksum"`
	// File is the weights filename within the version directory.
	File string `json:"file"`
	// Bits is the quantization width for generalist artifacts (0 = float).
	Bits int `json:"bits,omitempty"`
}

// VersionDir returns the directory for one version of a name under root.
func VersionDir(root, name string, version int) string {
	return filepath.Join(root, name, "v"+strconv.Itoa(version))
}

// WriteManifest creates the version directory (must not already hold a
// manifest — versions are immutable) and writes the manifest atomically via
// rename, returning the directory path.
func WriteManifest(root string, m Manifest) (string, error) {
	if m.Name == "" || m.Version < 1 || m.File == "" {
		return "", fmt.Errorf("registry: incomplete manifest %+v", m)
	}
	dir := VersionDir(root, m.Name, m.Version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ManifestFile)
	if _, err := os.Stat(path); err == nil {
		return "", fmt.Errorf("registry: version %s@v%d already published at %s", m.Name, m.Version, dir)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return dir, nil
}

// ReadManifest loads and validates the manifest of one version directory.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("registry: bad manifest in %s: %w", dir, err)
	}
	if m.Name == "" || m.Version < 1 || m.File == "" {
		return Manifest{}, fmt.Errorf("registry: incomplete manifest in %s", dir)
	}
	if _, err := KindFromString(m.Kind); err != nil {
		return Manifest{}, fmt.Errorf("registry: manifest in %s: %w", dir, err)
	}
	return m, nil
}

// LatestVersion scans <root>/<name> for the highest v<N> directory holding a
// readable manifest. Returns 0 (no error) when the name has no versions.
func LatestVersion(root, name string) (int, error) {
	entries, err := os.ReadDir(filepath.Join(root, name))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	best := 0
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "v") {
			continue
		}
		n, err := strconv.Atoi(e.Name()[1:])
		if err != nil || n < 1 || n <= best {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, name, e.Name(), ManifestFile)); err == nil {
			best = n
		}
	}
	return best, nil
}

// Names lists the artifact names present under root (directories holding at
// least one version), sorted.
func Names(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if v, err := LatestVersion(root, e.Name()); err == nil && v > 0 {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// LatestManifest reads the manifest of a name's highest version under root.
func LatestManifest(root, name string) (Manifest, string, error) {
	v, err := LatestVersion(root, name)
	if err != nil {
		return Manifest{}, "", err
	}
	if v == 0 {
		return Manifest{}, "", fmt.Errorf("registry: no versions of %q under %s: %w", name, root, ErrUnknownArtifact)
	}
	dir := VersionDir(root, name, v)
	m, err := ReadManifest(dir)
	if err != nil {
		return Manifest{}, "", err
	}
	return m, dir, nil
}
