// Package datagen generates the synthetic data used throughout the library:
// the tutorial's hands-on hiring scenario — recommendation letters with a
// lexical sentiment signal, plus demographic and social-media side tables
// keyed to the applicants — and a family of data-error injectors (label
// flips, missing values under MCAR/MAR/MNAR, outliers, sampling bias,
// out-of-distribution rows).
//
// The tutorial itself uses synthetically generated data (its ethics section
// says so explicitly), so this package regenerates an equivalent
// distribution from seeded RNGs: every dataset and every injected error is
// bit-for-bit reproducible.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"nde/internal/frame"
)

// positive/negative phrase inventories for the letter generator. Sentiment
// is carried by which inventory dominates a letter.
var (
	positivePhrases = []string{
		"exceptional analytical skills", "a pleasure to supervise",
		"consistently exceeded expectations", "remarkable attention to detail",
		"an outstanding team player", "strong leadership qualities",
		"delivered excellent results", "highly creative problem solver",
		"impressive work ethic", "earned the respect of colleagues",
		"truly dependable under pressure", "great communication skills",
	}
	negativePhrases = []string{
		"struggled to meet deadlines", "raised serious concerns",
		"undermined team morale", "required constant supervision",
		"failed to follow instructions", "often arrived unprepared",
		"showed little initiative", "poor communication with peers",
		"inconsistent quality of work", "resisted constructive feedback",
		"missed several key milestones", "lacked professional maturity",
	}
	neutralPhrases = []string{
		"worked in our department", "was assigned to several projects",
		"participated in weekly meetings", "completed the standard training",
		"reported to the project lead", "collaborated with other teams",
	}
	sectors = []string{"healthcare", "finance", "retail", "education", "tech"}
	degrees = []string{"bsc", "msc", "phd", "mba"}
)

// HiringData bundles the scenario tables. Letters is the main table with
// columns (person_id, job_id, letter_text, employer_rating, sentiment);
// Jobs has (job_id, sector, seniority); Social has (person_id, twitter,
// followers); Demographics has (person_id, sex, age, degree).
type HiringData struct {
	Letters      *frame.Frame
	Jobs         *frame.Frame
	Social       *frame.Frame
	Demographics *frame.Frame
}

// Config controls scenario generation.
type Config struct {
	// N is the number of applicants/letters (default 300).
	N int
	// Seed drives all randomness.
	Seed int64
	// PositiveFraction of letters with positive sentiment (default 0.5).
	PositiveFraction float64
	// PhrasesPerLetter controls letter length (default 4).
	PhrasesPerLetter int
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 300
	}
	if c.PositiveFraction <= 0 || c.PositiveFraction >= 1 {
		c.PositiveFraction = 0.5
	}
	if c.PhrasesPerLetter <= 0 {
		c.PhrasesPerLetter = 4
	}
	return c
}

// Hiring generates the full scenario.
func Hiring(cfg Config) *HiringData {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N

	nJobs := max(3, n/10)
	jobIDs := make([]int64, nJobs)
	jobSectors := make([]string, nJobs)
	jobSeniority := make([]int64, nJobs)
	for j := 0; j < nJobs; j++ {
		jobIDs[j] = int64(100 + j)
		jobSectors[j] = sectors[r.Intn(len(sectors))]
		jobSeniority[j] = int64(1 + r.Intn(5))
	}
	jobs := frame.MustNew(
		frame.NewIntSeries("job_id", jobIDs, nil),
		frame.NewStringSeries("sector", jobSectors, nil),
		frame.NewIntSeries("seniority", jobSeniority, nil),
	)

	personIDs := make([]int64, n)
	letterJob := make([]int64, n)
	letterText := make([]string, n)
	employerRating := make([]float64, n)
	sentiment := make([]string, n)
	for i := 0; i < n; i++ {
		personIDs[i] = int64(1000 + i)
		letterJob[i] = jobIDs[r.Intn(nJobs)]
		positive := r.Float64() < cfg.PositiveFraction
		letterText[i] = makeLetter(r, positive, cfg.PhrasesPerLetter)
		if positive {
			sentiment[i] = "positive"
			employerRating[i] = 3.5 + float64(1.5*float64(r.Float64()))
		} else {
			sentiment[i] = "negative"
			employerRating[i] = 1 + float64(2*float64(r.Float64()))
		}
	}
	letters := frame.MustNew(
		frame.NewIntSeries("person_id", personIDs, nil),
		frame.NewIntSeries("job_id", letterJob, nil),
		frame.NewStringSeries("letter_text", letterText, nil),
		frame.NewFloatSeries("employer_rating", employerRating, nil),
		frame.NewStringSeries("sentiment", sentiment, nil),
	)

	// social side table covers ~70% of applicants
	var socialIDs []int64
	var twitter []string
	var twitterValid []bool
	var followers []int64
	for i := 0; i < n; i++ {
		if r.Float64() < 0.7 {
			socialIDs = append(socialIDs, personIDs[i])
			if r.Float64() < 0.8 {
				twitter = append(twitter, fmt.Sprintf("@applicant%d", personIDs[i]))
				twitterValid = append(twitterValid, true)
			} else {
				twitter = append(twitter, "")
				twitterValid = append(twitterValid, false)
			}
			followers = append(followers, int64(r.Intn(5000)))
		}
	}
	social := frame.MustNew(
		frame.NewIntSeries("person_id", socialIDs, nil),
		frame.NewStringSeries("twitter", twitter, twitterValid),
		frame.NewIntSeries("followers", followers, nil),
	)

	sexes := make([]string, n)
	ages := make([]int64, n)
	degs := make([]string, n)
	for i := 0; i < n; i++ {
		sexes[i] = []string{"f", "m"}[r.Intn(2)]
		ages[i] = int64(22 + r.Intn(40))
		degs[i] = degrees[r.Intn(len(degrees))]
	}
	demographics := frame.MustNew(
		frame.NewIntSeries("person_id", personIDs, nil),
		frame.NewStringSeries("sex", sexes, nil),
		frame.NewIntSeries("age", ages, nil),
		frame.NewStringSeries("degree", degs, nil),
	)

	return &HiringData{Letters: letters, Jobs: jobs, Social: social, Demographics: demographics}
}

func makeLetter(r *rand.Rand, positive bool, phrases int) string {
	var pool, opposite []string
	if positive {
		pool, opposite = positivePhrases, negativePhrases
	} else {
		pool, opposite = negativePhrases, positivePhrases
	}
	parts := make([]string, 0, phrases)
	for p := 0; p < phrases; p++ {
		roll := r.Float64()
		switch {
		case roll < 0.65:
			parts = append(parts, pool[r.Intn(len(pool))])
		case roll < 0.8:
			parts = append(parts, opposite[r.Intn(len(opposite))])
		default:
			parts = append(parts, neutralPhrases[r.Intn(len(neutralPhrases))])
		}
	}
	return "The candidate " + strings.Join(parts, ", and ") + "."
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
