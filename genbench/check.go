package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/engine"
)

// goldenPath is the committed answer-hash file, relative to the repository
// root: answers at the golden point (small preset, seed 1, DefaultParams).
const goldenPath = "testdata/golden_answers.json"

// answerHash canonicalizes an answer through its typed JSON encoding (Go's
// float64 encoding is shortest-round-trip, so bitwise faithful) and hashes
// it — the same rule that produced the committed goldens.
func answerHash(answer any) (string, error) {
	b, err := json.Marshal(answer)
	if err != nil {
		return "", fmt.Errorf("marshal answer: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// classGoldenKey names the configuration whose committed hash represents an
// answer class at the golden point: every member of a class answers
// bit-identically, so one representative pins them all.
func classGoldenKey(class string, q engine.QueryID) string {
	switch class {
	case core.ClassDense:
		return "vanilla-r/" + q.String()
	case core.ClassDist:
		return "pbdr@4n/" + q.String()
	case core.ClassMR:
		return "hadoop/" + q.String()
	}
	return ""
}

func loadGoldens() (map[string]string, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return want, nil
}

// classCheck asserts that, within an answer class, every configuration and
// every repetition produces the same answer bits for the same request.
type classCheck struct {
	mu    sync.Mutex
	first map[string]classAnswer
}

type classAnswer struct {
	hash, by string
}

func newClassCheck() *classCheck { return &classCheck{first: map[string]classAnswer{}} }

// observe records one answer and reports a mismatch to r when it differs
// from the first answer its class gave to the same request.
func (c *classCheck) observe(r *runCtx, class, config string, q engine.QueryID, p engine.Params, answer any) {
	h, err := answerHash(answer)
	if err != nil {
		r.mismatch("%s %s: %v", config, q, err)
		return
	}
	key := fmt.Sprintf("%s|%d|%+v", class, q, p)
	c.mu.Lock()
	prev, ok := c.first[key]
	if !ok {
		c.first[key] = classAnswer{h, config}
	}
	c.mu.Unlock()
	if ok && prev.hash != h {
		r.mismatch("class %s %s: %s answered %.12s, %s answered %.12s", class, q, config, h, prev.by, prev.hash)
	}
}

// metricKey maps a configuration key to a metric-name component:
// "scidb@4n" becomes "scidb-4n".
func metricKey(config string) string {
	return strings.ReplaceAll(config, "@", "-")
}
