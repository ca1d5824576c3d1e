// Package scenario turns the reproduction from "replay one calibrated
// Google+ run" into an explorable model space: a registry of named
// what-if configurations, each a declarative patch over the calibrated
// gplus.Config, plus a parallel sweep runner (sweep.go) that simulates
// every requested scenario, packs the results into snapstore timelines
// under a workspace directory, and records a manifest that sanserve
// can mount wholesale.
//
// The built-in scenarios are the paper's own counterfactuals: the
// Figure 18 ablations (PA instead of LAPA first links, RR instead of
// RR-SAN closing, no closing at all) and the §3 population hypotheses
// (subscriber-heavy vs social-only arrival mixes, a stretched
// invite-only phase).  Comparing their figures side by side — which
// /v1/compare on sanserve does in one request — is how the model's
// mechanistic claims become testable against the baseline.
package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gplus"
	"repro/internal/san"
)

// Patch is a declarative override set applied on top of a base
// gplus.Config.  Nil fields keep the base value, so a Patch documents
// exactly what a scenario changes and nothing else.  Attachment and
// closing knobs are core-model building blocks (core.AttachKind,
// focal weights), which is what lets one patch express the paper's
// model-level ablations on the reference simulator.
type Patch struct {
	Days      *int
	Phase1End *int
	Phase2End *int
	DailyBase *int

	Attachment     *core.AttachKind
	DisableClosing *bool
	// FocalTypeWeight replaces the per-type RR-SAN weights entirely
	// when non-nil (an empty map zeroes every weight, reducing RR-SAN
	// to plain RR).
	FocalTypeWeight map[san.AttrType]float64

	SubscriberFrac *[3]float64
	CelebFrac      *float64
	RecipProb      *[3]float64
	InviteProb     *[3]float64

	AttrProb *float64
	Seed     *uint64
}

// Apply returns base with the patch's non-nil overrides applied and
// the result validated.
func (p *Patch) Apply(base gplus.Config) (gplus.Config, error) {
	cfg := base
	if p.Days != nil {
		cfg.Days = *p.Days
	}
	if p.Phase1End != nil {
		cfg.Phase1End = *p.Phase1End
	}
	if p.Phase2End != nil {
		cfg.Phase2End = *p.Phase2End
	}
	if p.DailyBase != nil {
		cfg.DailyBase = *p.DailyBase
	}
	if p.Attachment != nil {
		cfg.Attachment = *p.Attachment
	}
	if p.DisableClosing != nil {
		cfg.DisableClosing = *p.DisableClosing
	}
	if p.FocalTypeWeight != nil {
		cfg.FocalTypeWeight = p.FocalTypeWeight
	}
	if p.SubscriberFrac != nil {
		cfg.SubscriberFrac = *p.SubscriberFrac
	}
	if p.CelebFrac != nil {
		cfg.CelebFrac = *p.CelebFrac
	}
	if p.RecipProb != nil {
		cfg.RecipProb = *p.RecipProb
	}
	if p.InviteProb != nil {
		cfg.InviteProb = *p.InviteProb
	}
	if p.AttrProb != nil {
		cfg.AttrProb = *p.AttrProb
	}
	if p.Seed != nil {
		cfg.Seed = *p.Seed
	}
	if err := cfg.Validate(); err != nil {
		return gplus.Config{}, err
	}
	return cfg, nil
}

// Scenario is one named what-if configuration.
type Scenario struct {
	Name  string // registry key and workspace file stem
	Title string // one-line human description
	Patch Patch
}

// Config resolves the scenario against a base configuration.
func (s Scenario) Config(base gplus.Config) (gplus.Config, error) {
	cfg, err := s.Patch.Apply(base)
	if err != nil {
		return gplus.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return cfg, nil
}

func ptr[T any](v T) *T { return &v }

// registry holds the built-in scenarios.  Sweeps and the serving layer
// resolve names against it; Names gives the stable order.
var registry = map[string]Scenario{
	"baseline": {
		Name:  "baseline",
		Title: "calibrated Google+ run (LAPA + RR-SAN, drifting subscriber share)",
	},
	"pa-first-link": {
		Name:  "pa-first-link",
		Title: "Figure 18a ablation: attribute-blind PA first links instead of LAPA",
		Patch: Patch{Attachment: ptr(core.AttachPA)},
	},
	"rr-closing": {
		Name:  "rr-closing",
		Title: "Figure 18b ablation: plain RR closing (focal attribute hop disabled)",
		Patch: Patch{FocalTypeWeight: map[san.AttrType]float64{}},
	},
	"no-triangle-closing": {
		Name:  "no-triangle-closing",
		Title: "no closing at all: every wake-up is an attachment link",
		Patch: Patch{DisableClosing: ptr(true)},
	},
	"subscriber-heavy": {
		Name:  "subscriber-heavy",
		Title: "§3 hypothesis pushed: subscriber share 60/80/95% per phase",
		Patch: Patch{SubscriberFrac: ptr([3]float64{0.6, 0.8, 0.95})},
	},
	"social-only": {
		Name:  "social-only",
		Title: "§3 hypothesis inverted: no subscribers or celebrities, pure social network",
		Patch: Patch{
			SubscriberFrac: ptr([3]float64{0, 0, 0}),
			CelebFrac:      ptr(0.0),
		},
	},
	"extended-invite": {
		Name:  "extended-invite",
		Title: "phase-schedule variant: invite-only era stretched to day 90",
		Patch: Patch{Phase1End: ptr(15), Phase2End: ptr(90)},
	},
}

// Names returns the registry keys in stable (sorted) order, baseline
// first.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		if n != "baseline" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{"baseline"}, names...)
}

// Get resolves one scenario by name.
func Get(name string) (Scenario, error) {
	s, ok := registry[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, Names())
	}
	return s, nil
}

// Digest returns a short stable hash of a resolved configuration, so a
// manifest records exactly which parameters produced each timeline and
// re-sweeps can detect configuration drift.  Fields are hashed in a
// fixed order (map weights sorted by type), so equal configs always
// digest equally regardless of construction order.
func Digest(c gplus.Config) string {
	h := sha256.New()
	wf := func(vs ...float64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	wi := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	wi(int64(c.Days), int64(c.Phase1End), int64(c.Phase2End), int64(c.DailyBase),
		int64(c.Attachment), int64(c.CelebSplash), int64(boolInt(c.DisableClosing)),
		int64(boolInt(c.RecordObserved)), int64(c.Seed))
	wf(c.AttrProb, c.MuAttr, c.SigmaAttr, c.PNewValue, c.MaxAttrFrac,
		c.Alpha, c.Beta, c.MuLife, c.SigmaLife, c.MeanSleep,
		c.CelebFrac, c.InviteBurst, c.InviteAttrInherit, c.RecipAttrBoost,
		c.RecipDelayMean, c.RecipDelaySlowMean, c.RecipSlowFrac)
	wf(c.SubscriberFrac[:]...)
	wf(c.RecipProb[:]...)
	wf(c.InviteProb[:]...)
	types := make([]int, 0, len(c.FocalTypeWeight))
	for t := range c.FocalTypeWeight {
		types = append(types, int(t))
	}
	sort.Ints(types)
	for _, t := range types {
		wi(int64(t))
		wf(c.FocalTypeWeight[san.AttrType(t)])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
