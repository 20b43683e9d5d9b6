package core

import (
	"fmt"
	"io"
	"math/rand"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/gan"
	"rfprotect/internal/geom"
	"rfprotect/internal/motion"
	"rfprotect/internal/reflector"
)

// Config assembles an RF-Protect system around a Session's tag.
type Config struct {
	// GAN optionally overrides the generator configuration.
	GAN *gan.Config
	// CorpusSize is the size of the synthetic training corpus used when
	// TrainGenerator is called with a nil dataset (default 2000).
	CorpusSize int
	// Seed drives all randomness in the system.
	Seed int64
}

// System is a deployed RF-Protect instance.
type System struct {
	tag     *reflector.Reflector
	ctl     *reflector.Controller
	trainer *gan.Trainer
	rng     *rand.Rand
}

// NewSystem assembles a full RF-Protect System (trajectory generator +
// ghost management) that shares the session's tag and controller, so ghosts
// deployed through the System show up in the session's scene and
// disclosures.
func (s *Session) NewSystem(cfg Config) *System {
	ganCfg := gan.DefaultConfig()
	if cfg.GAN != nil {
		ganCfg = *cfg.GAN
	}
	ganCfg.Seed = cfg.Seed + 1
	if cfg.CorpusSize <= 0 {
		cfg.CorpusSize = 2000
	}
	ds := motion.Generate(cfg.CorpusSize, cfg.Seed+2)
	return &System{
		tag:     s.Tag,
		ctl:     s.Ctl,
		trainer: gan.NewTrainer(ganCfg, ds),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Tag returns the hardware reflector, which implements scene.ReturnSource.
func (s *System) Tag() *reflector.Reflector { return s.tag }

// Controller exposes the tag controller for advanced programming.
func (s *System) Controller() *reflector.Controller { return s.ctl }

// Trainer exposes the underlying GAN trainer.
func (s *System) Trainer() *gan.Trainer { return s.trainer }

// TrainGenerator trains the cGAN for the given number of steps on the
// system's corpus (ds == nil) or a caller-provided dataset.
func (s *System) TrainGenerator(ds *motion.Dataset, steps int) {
	if ds != nil {
		cfg := s.trainer.Cfg
		s.trainer = gan.NewTrainer(cfg, *ds)
	}
	s.trainer.Train(steps, 0, nil)
}

// SaveGenerator / LoadGenerator persist the trained networks.
func (s *System) SaveGenerator(w io.Writer) error { return s.trainer.Save(w) }

// LoadGenerator restores networks saved by SaveGenerator.
func (s *System) LoadGenerator(r io.Reader) error { return s.trainer.Load(r) }

// SampleTrajectory draws one generated trajectory of the given range class
// (0..motion.NumClasses-1), anchored at the origin.
func (s *System) SampleTrajectory(class int) (geom.Trajectory, error) {
	if class < 0 || class >= motion.NumClasses {
		return nil, fmt.Errorf("core: class %d out of range [0, %d)", class, motion.NumClasses)
	}
	trs := s.trainer.G.Generate(1, class, s.rng)
	return trs[0], nil
}

// DeployGhost samples a class trajectory, anchors its start at the given
// point relative to the tag, and programs it radar-agnostically
// (ProgramLocal). It returns the disclosure record.
func (s *System) DeployGhost(class int, anchor geom.Point, start float64) (reflector.GhostRecord, error) {
	tr, err := s.SampleTrajectory(class)
	if err != nil {
		return reflector.GhostRecord{}, err
	}
	return s.ctl.ProgramLocal(tr.Translate(anchor), motion.SampleRate, start)
}

// DeployGhostCalibrated anchors a sampled trajectory at a world position
// and programs it against a known radar geometry (the evaluation setup).
func (s *System) DeployGhostCalibrated(class int, anchor geom.Point, radar fmcw.Array, start float64) (reflector.GhostRecord, geom.Trajectory, error) {
	tr, err := s.SampleTrajectory(class)
	if err != nil {
		return reflector.GhostRecord{}, nil, err
	}
	world := tr.Translate(anchor)
	rec, err := s.ctl.ProgramForRadar(world, radar, motion.SampleRate, start)
	return rec, world, err
}

// DeployBreathingGhost programs a stationary breathing phantom (§11.4).
func (s *System) DeployBreathingGhost(antenna int, extraDistance, rate, amplitude, duration, start float64) (reflector.GhostRecord, error) {
	return s.ctl.ProgramBreathing(antenna, extraDistance, rate, amplitude, duration, start)
}

// Disclosures returns the records of every deployed ghost, the information
// shared with legitimate sensors.
func (s *System) Disclosures() []reflector.GhostRecord { return s.ctl.Records() }
