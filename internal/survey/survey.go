// Package survey defines the survey domain model shared by every other
// module: surveys, questions, answers, responses, validation, and the
// redundancy (consistency) checks the paper uses to filter out random
// responders.
//
// A Question is typed by kind. Ratings questions (the paper's focus) take
// a numeric answer on a bounded scale; multiple-choice questions take an
// option index; numeric questions take a bounded number (used for ZIP
// codes, birth years and the like); free-text questions are supported by
// the model but explicitly excluded from obfuscation, as in the paper.
//
// Questions additionally carry an Attribute label stating which personal
// attribute the answer reveals (birth day/month, gender, ZIP, ...). The
// attack module uses these labels to assemble quasi-identifiers exactly
// the way the paper's authors did by reading their own survey answers.
package survey

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// QuestionKind enumerates the supported question types.
type QuestionKind int

const (
	// Rating is a bounded numeric scale question (e.g. 1..5 stars).
	Rating QuestionKind = iota
	// MultipleChoice is a single-select categorical question.
	MultipleChoice
	// Numeric is a bounded integer question (year of birth, ZIP, ...).
	Numeric
	// FreeText is an unconstrained text question. Free text cannot be
	// obfuscated by noise addition and is excluded from Loki's privacy
	// mechanism, as stated in the paper.
	FreeText
)

// String returns the kind's lowercase name.
func (k QuestionKind) String() string {
	switch k {
	case Rating:
		return "rating"
	case MultipleChoice:
		return "multiple-choice"
	case Numeric:
		return "numeric"
	case FreeText:
		return "free-text"
	default:
		return fmt.Sprintf("QuestionKind(%d)", int(k))
	}
}

// Attribute labels what personal information an answer reveals. Most
// questions reveal nothing (AttrNone); the paper's profiling surveys
// harvest the attributes below.
type Attribute string

// Attributes harvested by the paper's surveys.
const (
	AttrNone          Attribute = ""
	AttrStarSign      Attribute = "star-sign"
	AttrBirthDayMonth Attribute = "birth-day-month" // day+month encoded as month*100+day
	AttrBirthYear     Attribute = "birth-year"
	AttrGender        Attribute = "gender"
	AttrZIP           Attribute = "zip"
	AttrSmoking       Attribute = "smoking"
	AttrCough         Attribute = "cough"
	AttrAge           Attribute = "age"
	AttrAwareness     Attribute = "awareness"
	AttrParticipation Attribute = "participation"
	AttrOpinion       Attribute = "opinion" // non-identifying filler
)

// Question is a single survey question.
type Question struct {
	// ID is unique within a survey.
	ID string `json:"id"`
	// Text is the question prompt.
	Text string `json:"text"`
	// Kind selects the answer type.
	Kind QuestionKind `json:"kind"`
	// ScaleMin and ScaleMax bound Rating and Numeric answers
	// (inclusive).
	ScaleMin float64 `json:"scale_min,omitempty"`
	ScaleMax float64 `json:"scale_max,omitempty"`
	// Options are the choices of a MultipleChoice question.
	Options []string `json:"options,omitempty"`
	// Attribute labels the personal attribute the answer reveals.
	Attribute Attribute `json:"attribute,omitempty"`
	// Sensitive marks answers whose disclosure the paper treats as a
	// privacy breach (health attributes).
	Sensitive bool `json:"sensitive,omitempty"`
}

// Validate reports whether the question definition itself is coherent.
func (q *Question) Validate() error {
	if q.ID == "" {
		return errors.New("survey: question has empty ID")
	}
	switch q.Kind {
	case Rating, Numeric:
		if !(q.ScaleMax > q.ScaleMin) {
			return fmt.Errorf("survey: question %q has invalid scale [%g, %g]", q.ID, q.ScaleMin, q.ScaleMax)
		}
	case MultipleChoice:
		if len(q.Options) < 2 {
			return fmt.Errorf("survey: question %q has %d options, need >= 2", q.ID, len(q.Options))
		}
	case FreeText:
		// no constraints
	default:
		return fmt.Errorf("survey: question %q has unknown kind %d", q.ID, int(q.Kind))
	}
	return nil
}

// DomainSize returns the number of possible answers for countable-domain
// questions (the paper's obfuscation applies only to these). It returns 0
// for free-text questions.
func (q *Question) DomainSize() int {
	switch q.Kind {
	case Rating, Numeric:
		return int(q.ScaleMax-q.ScaleMin) + 1
	case MultipleChoice:
		return len(q.Options)
	default:
		return 0
	}
}

// Sensitivity returns the maximum change of the answer value between any
// two possible true answers — the sensitivity used to calibrate noise.
// For multiple-choice questions the answer is an index and sensitivity is
// len(Options)-1; randomized response does not use it but the DP ledger
// records it for reporting.
func (q *Question) Sensitivity() float64 {
	switch q.Kind {
	case Rating, Numeric:
		return q.ScaleMax - q.ScaleMin
	case MultipleChoice:
		return float64(len(q.Options) - 1)
	default:
		return 0
	}
}

// ConsistencyRule selects how a ConsistencyPair is evaluated.
type ConsistencyRule string

// Consistency rules. RuleEqual demands equal answers (within Tolerance
// for numeric kinds). RuleZodiac checks that a star-sign choice (indices
// follow ZodiacSigns) matches a birth day/month encoded as month*100+day.
// RuleAgeYear checks that a claimed age matches a claimed birth year
// relative to ReferenceYear, within Tolerance+1 (the birthday may not
// have passed yet). The derived-fact rules are how the paper's surveys
// embed redundancy without visibly repeating a question.
const (
	RuleEqual   ConsistencyRule = ""
	RuleZodiac  ConsistencyRule = "zodiac"
	RuleAgeYear ConsistencyRule = "age-year"
)

// ReferenceYear anchors age↔birth-year consistency checks. The paper's
// experiments ran in 2013.
const ReferenceYear = 2013

// ConsistencyPair names two questions that ask for the same underlying
// fact in different words. The paper: "We designed our surveys with
// sufficient redundancy to help us identify and filter out users who gave
// random responses." Tolerance is the maximum allowed absolute difference
// for Rating/Numeric pairs (0 for exact-match kinds).
type ConsistencyPair struct {
	QuestionA string          `json:"question_a"`
	QuestionB string          `json:"question_b"`
	Tolerance float64         `json:"tolerance,omitempty"`
	Rule      ConsistencyRule `json:"rule,omitempty"`
}

// Survey is an ordered questionnaire posted to a platform.
type Survey struct {
	// ID is unique across the platform.
	ID string `json:"id"`
	// Title and Description are shown to workers.
	Title       string `json:"title"`
	Description string `json:"description,omitempty"`
	// Questions in presentation order.
	Questions []Question `json:"questions"`
	// Consistency lists the redundancy checks used to filter random
	// responders.
	Consistency []ConsistencyPair `json:"consistency,omitempty"`
	// RewardCents is the payment per completed response, in US cents.
	RewardCents int `json:"reward_cents"`
}

// Validate checks the whole survey definition: question validity, unique
// IDs, and well-formed consistency pairs.
func (s *Survey) Validate() error {
	if s.ID == "" {
		return errors.New("survey: empty survey ID")
	}
	if len(s.Questions) == 0 {
		return fmt.Errorf("survey: %q has no questions", s.ID)
	}
	if s.RewardCents < 0 {
		return fmt.Errorf("survey: %q has negative reward %d", s.ID, s.RewardCents)
	}
	seen := make(map[string]bool, len(s.Questions))
	for i := range s.Questions {
		q := &s.Questions[i]
		if err := q.Validate(); err != nil {
			return err
		}
		if seen[q.ID] {
			return fmt.Errorf("survey: %q has duplicate question ID %q", s.ID, q.ID)
		}
		seen[q.ID] = true
	}
	for _, cp := range s.Consistency {
		qa, qb := s.Question(cp.QuestionA), s.Question(cp.QuestionB)
		if qa == nil || qb == nil {
			return fmt.Errorf("survey: %q consistency pair references unknown question (%q, %q)",
				s.ID, cp.QuestionA, cp.QuestionB)
		}
		if cp.Tolerance < 0 {
			return fmt.Errorf("survey: %q consistency pair (%q, %q) has negative tolerance",
				s.ID, cp.QuestionA, cp.QuestionB)
		}
		switch cp.Rule {
		case RuleEqual:
			if qa.Kind != qb.Kind {
				return fmt.Errorf("survey: %q consistency pair (%q, %q) mixes kinds %v and %v",
					s.ID, cp.QuestionA, cp.QuestionB, qa.Kind, qb.Kind)
			}
		case RuleZodiac:
			if qa.Kind != MultipleChoice || len(qa.Options) != 12 {
				return fmt.Errorf("survey: %q zodiac check needs a 12-option choice question, got %q", s.ID, qa.ID)
			}
			if qb.Kind != Numeric {
				return fmt.Errorf("survey: %q zodiac check needs a numeric day/month question, got %q", s.ID, qb.ID)
			}
		case RuleAgeYear:
			if qa.Kind != Numeric || qb.Kind != Numeric {
				return fmt.Errorf("survey: %q age-year check needs numeric questions", s.ID)
			}
		default:
			return fmt.Errorf("survey: %q has unknown consistency rule %q", s.ID, cp.Rule)
		}
	}
	return nil
}

// Clone returns a deep copy of the survey: mutating the copy — including
// its questions, their options, and its consistency pairs — never
// affects the original. Stores hand out clones so published definitions
// stay immutable.
func (s *Survey) Clone() *Survey {
	cp := *s
	cp.Questions = make([]Question, len(s.Questions))
	copy(cp.Questions, s.Questions)
	for i := range cp.Questions {
		cp.Questions[i].Options = append([]string(nil), s.Questions[i].Options...)
	}
	cp.Consistency = append([]ConsistencyPair(nil), s.Consistency...)
	return &cp
}

// Question returns the question with the given ID, or nil.
func (s *Survey) Question(id string) *Question {
	for i := range s.Questions {
		if s.Questions[i].ID == id {
			return &s.Questions[i]
		}
	}
	return nil
}

// QuestionsByAttribute returns the questions harvesting the given
// attribute, in order.
func (s *Survey) QuestionsByAttribute(attr Attribute) []*Question {
	var out []*Question
	for i := range s.Questions {
		if s.Questions[i].Attribute == attr {
			out = append(out, &s.Questions[i])
		}
	}
	return out
}

// HarvestedAttributes returns the set of non-empty attributes the survey
// collects, in question order without duplicates.
func (s *Survey) HarvestedAttributes() []Attribute {
	var out []Attribute
	seen := make(map[Attribute]bool)
	for i := range s.Questions {
		a := s.Questions[i].Attribute
		if a != AttrNone && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Answers and responses

// Answer is a single answer to a question. Exactly one value field is
// meaningful, selected by Kind. Rating answers are float64 so that
// obfuscated (noisy, real-valued) ratings are representable, matching the
// paper's Fig. 1(c) where noisy ratings like 3.86 are reported.
type Answer struct {
	QuestionID string       `json:"question_id"`
	Kind       QuestionKind `json:"kind"`
	// Rating holds Rating and Numeric values.
	Rating float64 `json:"rating,omitempty"`
	// Choice holds the option index of a MultipleChoice answer.
	Choice int `json:"choice,omitempty"`
	// Text holds a FreeText answer.
	Text string `json:"text,omitempty"`
}

// Value returns the numeric value of a countable-domain answer (rating,
// numeric, or choice index). It returns an error for free-text answers.
func (a *Answer) Value() (float64, error) {
	switch a.Kind {
	case Rating, Numeric:
		return a.Rating, nil
	case MultipleChoice:
		return float64(a.Choice), nil
	default:
		return 0, fmt.Errorf("survey: answer to %q has no numeric value (kind %v)", a.QuestionID, a.Kind)
	}
}

// RatingAnswer constructs a rating or numeric answer.
func RatingAnswer(questionID string, value float64) Answer {
	return Answer{QuestionID: questionID, Kind: Rating, Rating: value}
}

// NumericAnswer constructs a numeric answer.
func NumericAnswer(questionID string, value float64) Answer {
	return Answer{QuestionID: questionID, Kind: Numeric, Rating: value}
}

// ChoiceAnswer constructs a multiple-choice answer.
func ChoiceAnswer(questionID string, choice int) Answer {
	return Answer{QuestionID: questionID, Kind: MultipleChoice, Choice: choice}
}

// TextAnswer constructs a free-text answer.
func TextAnswer(questionID, text string) Answer {
	return Answer{QuestionID: questionID, Kind: FreeText, Text: text}
}

// ValidateAnswer checks an answer against its question definition.
// Obfuscated rating answers may legitimately fall outside the scale, so
// validation of uploaded (noisy) responses passes allowOutOfScale=true;
// raw (pre-obfuscation) answers are validated strictly.
func ValidateAnswer(q *Question, a *Answer, allowOutOfScale bool) error {
	if q == nil {
		return fmt.Errorf("survey: answer references unknown question %q", a.QuestionID)
	}
	if a.Kind != q.Kind {
		// Numeric and Rating share a representation; everything else
		// must match exactly.
		interchangeable := (a.Kind == Rating && q.Kind == Numeric) || (a.Kind == Numeric && q.Kind == Rating)
		if !interchangeable {
			return fmt.Errorf("survey: answer to %q has kind %v, question is %v", q.ID, a.Kind, q.Kind)
		}
	}
	switch q.Kind {
	case Rating, Numeric:
		if math.IsNaN(a.Rating) || math.IsInf(a.Rating, 0) {
			return fmt.Errorf("survey: answer to %q is not finite", q.ID)
		}
		if !allowOutOfScale && (a.Rating < q.ScaleMin || a.Rating > q.ScaleMax) {
			return fmt.Errorf("survey: answer %g to %q outside scale [%g, %g]",
				a.Rating, q.ID, q.ScaleMin, q.ScaleMax)
		}
	case MultipleChoice:
		if a.Choice < 0 || a.Choice >= len(q.Options) {
			return fmt.Errorf("survey: answer choice %d to %q outside [0, %d)", a.Choice, q.ID, len(q.Options))
		}
	case FreeText:
		// any text accepted
	}
	return nil
}

// Response is one worker's completed survey.
type Response struct {
	SurveyID string `json:"survey_id"`
	// WorkerID is the platform-assigned identifier. Under AMT's policy it
	// is stable across surveys — the linkage enabler the paper exposes.
	WorkerID string   `json:"worker_id"`
	Answers  []Answer `json:"answers"`
	// PrivacyLevel is the Loki privacy level name chosen by the user
	// ("none", "low", "medium", "high"); empty on legacy platforms.
	PrivacyLevel string `json:"privacy_level,omitempty"`
	// Obfuscated reports whether Answers have already been perturbed at
	// source.
	Obfuscated bool `json:"obfuscated,omitempty"`
	// Day is the simulated day the response was submitted.
	Day int `json:"day"`
}

// Clone returns a deep copy of r: a caller that keeps a response a scan
// lent it keeps the clone, whose Answers share no array with r's.
func (r *Response) Clone() Response {
	c := *r
	c.Answers = slices.Clone(r.Answers)
	return c
}

// Answer returns the response's answer to the given question ID, or nil.
func (r *Response) Answer(questionID string) *Answer {
	for i := range r.Answers {
		if r.Answers[i].QuestionID == questionID {
			return &r.Answers[i]
		}
	}
	return nil
}

// Validate checks the response against the survey definition: every
// question answered exactly once, every answer valid. Obfuscated
// responses may carry out-of-scale ratings.
func (r *Response) Validate(s *Survey) error {
	if r.SurveyID != s.ID {
		return fmt.Errorf("survey: response for %q validated against %q", r.SurveyID, s.ID)
	}
	if r.WorkerID == "" {
		return errors.New("survey: response has empty worker ID")
	}
	if len(r.Answers) != len(s.Questions) {
		return fmt.Errorf("survey: response to %q has %d answers, survey has %d questions",
			s.ID, len(r.Answers), len(s.Questions))
	}
	seen := make(map[string]bool, len(r.Answers))
	for i := range r.Answers {
		a := &r.Answers[i]
		if seen[a.QuestionID] {
			return fmt.Errorf("survey: response to %q answers %q twice", s.ID, a.QuestionID)
		}
		seen[a.QuestionID] = true
		if err := ValidateAnswer(s.Question(a.QuestionID), a, r.Obfuscated); err != nil {
			return err
		}
	}
	return nil
}

// Consistent reports whether the response passes all of the survey's
// redundancy checks. Obfuscated responses widen each tolerance by slack,
// since noise legitimately perturbs both halves of a pair.
func (r *Response) Consistent(s *Survey, slack float64) bool {
	for _, cp := range s.Consistency {
		aa, ab := r.Answer(cp.QuestionA), r.Answer(cp.QuestionB)
		if aa == nil || ab == nil {
			return false
		}
		switch cp.Rule {
		case RuleZodiac:
			// aa is the star-sign choice, ab the month*100+day number.
			if aa.Choice != ZodiacOf(int(ab.Rating)) {
				return false
			}
		case RuleAgeYear:
			// aa is the claimed age, ab the claimed birth year.
			age := aa.Rating
			impliedAge := float64(ReferenceYear) - ab.Rating
			if math.Abs(age-impliedAge) > cp.Tolerance+1+slack {
				return false
			}
		default: // RuleEqual
			qa := s.Question(cp.QuestionA)
			switch qa.Kind {
			case Rating, Numeric:
				if math.Abs(aa.Rating-ab.Rating) > cp.Tolerance+slack {
					return false
				}
			case MultipleChoice:
				if aa.Choice != ab.Choice {
					return false
				}
			case FreeText:
				if aa.Text != ab.Text {
					return false
				}
			}
		}
	}
	return true
}
