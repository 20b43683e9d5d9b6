package core

import (
	"fmt"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/reflector"
	"rfprotect/internal/scene"
)

// DefaultTagPosition returns the standard deployment of the reflector panel
// relative to an eavesdropper radar: broadside, ~1.2 m in front of the
// array and 0.5 m to the side, matching the paper's radar–reflector
// separation (§9.3). Every environment in the evaluation — experiments,
// examples, and the demo binaries — places its tag here unless it has a
// reason not to.
func DefaultTagPosition(radarArr fmcw.Array) geom.Point {
	return geom.Point{X: radarArr.Position.X - 0.5, Y: 1.2}
}

// SessionConfig describes one deployment to assemble: a room with an
// eavesdropper radar plus an RF-Protect tag wired into the scene. The zero
// value of every field selects the standard evaluation setup.
type SessionConfig struct {
	// Room is the environment (scene.HomeRoom(), scene.OfficeRoom(), ...).
	Room scene.Room
	// Params is the radar configuration; the zero value means
	// fmcw.DefaultParams().
	Params fmcw.Params
	// NoMultipath disables the scene's first-order wall multipath.
	NoMultipath bool
	// TagPosition / TagAxis place the reflector panel; a nil TagPosition
	// means DefaultTagPosition for the scene's radar.
	TagPosition *geom.Point
	TagAxis     float64
	// Tag overrides the full reflector configuration (TagPosition/TagAxis
	// are then ignored).
	Tag *reflector.Config
	// ConfigureTag, when non-nil, edits the effective reflector
	// configuration (default or override) before the tag is built — e.g.
	// flipping SSB for an ablation.
	ConfigureTag func(*reflector.Config)
	// ExtraRadars adds coordinated eavesdropper views: one additional scene
	// per array, sharing the room, radar parameters, multipath setting, and
	// the single tag (the paper's §13 extended threat model — the tag is
	// programmed against the primary radar and merely observed by the
	// others). Each view starts with the tag as its only source; humans and
	// clutter are per-scene and are wired by the caller, typically the same
	// *scene.Human pointers on every view.
	ExtraRadars []fmcw.Array
}

// Session is an assembled deployment: the scene with the tag already
// appended to its sources, plus the tag and its controller. It is the one
// shared wiring point for every consumer of the scene→tag→radar stack;
// construct one and program ghosts through Ctl (or a System from
// NewSystem), then capture via Scene or stream it through
// internal/pipeline.
type Session struct {
	Scene *scene.Scene
	Tag   *reflector.Reflector
	Ctl   *reflector.Controller
	// Views holds every radar's scene: Views[0] is Scene (the primary, with
	// the tag deployed relative to it), followed by one scene per
	// ExtraRadars entry in order. All views share the one Tag; captures are
	// independent per view (separate rngs).
	Views []*scene.Scene
}

// NewSession assembles the standard deployment described by cfg.
func NewSession(cfg SessionConfig) (*Session, error) {
	params := cfg.Params
	if params == (fmcw.Params{}) {
		params = fmcw.DefaultParams()
	}
	sc := scene.NewScene(cfg.Room, params)
	if cfg.NoMultipath {
		sc.Multipath = false
	}
	var tagCfg reflector.Config
	if cfg.Tag != nil {
		tagCfg = *cfg.Tag
	} else {
		pos := DefaultTagPosition(sc.Radar)
		if cfg.TagPosition != nil {
			pos = *cfg.TagPosition
		}
		tagCfg = reflector.DefaultConfig(pos, cfg.TagAxis)
	}
	if cfg.ConfigureTag != nil {
		cfg.ConfigureTag(&tagCfg)
	}
	tag, err := reflector.New(tagCfg)
	if err != nil {
		return nil, fmt.Errorf("core: session: %w", err)
	}
	sc.Sources = append(sc.Sources, tag)
	s := &Session{Scene: sc, Tag: tag, Ctl: reflector.NewController(tag)}
	s.Views = append(s.Views, sc)
	for _, arr := range cfg.ExtraRadars {
		view := scene.NewScene(cfg.Room, params)
		if cfg.NoMultipath {
			view.Multipath = false
		}
		view.Radar = arr
		view.Sources = append(view.Sources, tag)
		s.Views = append(s.Views, view)
	}
	return s, nil
}
