package crowd

import "fmt"

// Config parameterizes the simulated platform. Defaults mirror the paper's
// AMT setup (Section 6.4).
type Config struct {
	// BatchSize is the number of pairs per HIT (paper: 20).
	BatchSize int
	// Assignments is how many distinct workers label each HIT (paper: 3);
	// per-pair answers are combined by majority vote.
	Assignments int
	// RewardCents is the payment per assignment (paper: 2 cents per HIT).
	RewardCents int
	// Workers is the size of the simulated worker pool.
	Workers int
	// PickupMeanHours is the mean exponential delay before an idle worker
	// discovers an available assignment — the slow path that dominates when
	// a single HIT sits alone on the platform.
	PickupMeanHours float64
	// EngagedPickupHours is the mean delay before a worker who just
	// submitted an assignment takes the next one from a non-empty queue;
	// keeping workers engaged is exactly what the instant-decision
	// optimization buys (Section 5.2).
	EngagedPickupHours float64
	// ServiceMeanHours is the mean exponential time a worker spends
	// completing one assignment, added to ServiceFloorHours.
	ServiceMeanHours float64
	// ServiceFloorHours is the minimum assignment duration.
	ServiceFloorHours float64
	// SpammerFraction is the share of workers with low skill.
	SpammerFraction float64
	// Qualification enables the paper's qualification test: a three-pair
	// screen that filters most low-skill workers out of the pool.
	Qualification bool
	// QualificationCatchRate is the probability a spammer fails the screen.
	QualificationCatchRate float64
	// Model decides per-worker answers; nil means PerfectModel.
	Model ErrorModel
	// Seed drives all platform randomness.
	Seed int64
}

// DefaultConfig returns the paper-flavoured platform setup.
func DefaultConfig() Config {
	return Config{
		BatchSize:              20,
		Assignments:            3,
		RewardCents:            2,
		Workers:                12,
		PickupMeanHours:        0.5,
		EngagedPickupHours:     0.03,
		ServiceMeanHours:       0.2,
		ServiceFloorHours:      0.05,
		SpammerFraction:        0.25,
		Qualification:          true,
		QualificationCatchRate: 0.85,
		Model:                  PerfectModel{},
		Seed:                   1,
	}
}

func (c Config) validate() error {
	if c.BatchSize <= 0 {
		return fmt.Errorf("crowd: BatchSize %d must be positive", c.BatchSize)
	}
	if c.Assignments <= 0 {
		return fmt.Errorf("crowd: Assignments %d must be positive", c.Assignments)
	}
	if c.Workers < c.Assignments {
		return fmt.Errorf("crowd: %d workers cannot cover %d assignments per HIT (each assignment needs a distinct worker)",
			c.Workers, c.Assignments)
	}
	// Phrased so that NaN, which fails every comparison, fails the checks.
	if !(c.PickupMeanHours >= 0 && c.EngagedPickupHours >= 0 && c.ServiceMeanHours >= 0 && c.ServiceFloorHours >= 0) {
		return fmt.Errorf("crowd: latency parameters (pickup %v, engaged pickup %v, service %v, service floor %v) must be non-negative",
			c.PickupMeanHours, c.EngagedPickupHours, c.ServiceMeanHours, c.ServiceFloorHours)
	}
	if !(c.SpammerFraction >= 0 && c.SpammerFraction <= 1) {
		return fmt.Errorf("crowd: SpammerFraction %v outside [0,1]", c.SpammerFraction)
	}
	if !(c.QualificationCatchRate >= 0 && c.QualificationCatchRate <= 1) {
		return fmt.Errorf("crowd: QualificationCatchRate %v outside [0,1]", c.QualificationCatchRate)
	}
	return nil
}
