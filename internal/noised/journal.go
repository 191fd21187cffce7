package noised

import (
	"path/filepath"
	"strings"

	"repro/internal/clarinet"
)

// openJournal opens a request's journal for append; a seam for tests
// that observe when the server opens one.
var openJournal = clarinet.OpenJournal

// journalPath maps a request ID to its server-side journal file,
// <JournalDir>/<request_id><suffix>. Journaling happens only when the
// server has a JournalDir and the request named itself; anonymous
// requests stream without a checkpoint. requestIDPattern has already
// confined the ID to a safe file name.
func (s *Server) journalPath(requestID, suffix string) (string, bool) {
	if s.cfg.JournalDir == "" || requestID == "" {
		return "", false
	}
	return filepath.Join(s.cfg.JournalDir, requestID+suffix), true
}

// legacyJournalPath is the pre-binary-era name (<id>.jsonl) for the
// same request; old journals keep resuming after an upgrade.
func legacyJournalPath(path string) string {
	return strings.TrimSuffix(path, ".journal") + ".jsonl"
}

// readPriorJournal loads the completed nets of an earlier attempt at
// the same request ID, merging a legacy .jsonl journal under the
// current .journal file (newer file wins per net). A missing journal
// means a first attempt.
func readPriorJournal(path string) (map[string]clarinet.NetReport, error) {
	prior, err := clarinet.ReadJournalFile(legacyJournalPath(path))
	if err != nil {
		return nil, err
	}
	cur, err := clarinet.ReadJournalFile(path)
	if err != nil {
		return nil, err
	}
	for net, rep := range cur {
		prior[net] = rep
	}
	if len(prior) == 0 {
		return nil, nil
	}
	return prior, nil
}

// allResumed reports whether prior holds a record of every name.
func allResumed(names []string, prior map[string]clarinet.NetReport) bool {
	for _, n := range names {
		if _, ok := prior[n]; !ok {
			return false
		}
	}
	return true
}
