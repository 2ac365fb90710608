// Package loki is the public API of the Loki reproduction — a
// crowdsourced survey platform with at-source obfuscation, after
// Kandappu, Sivaraman, Friedman and Boreli, "Exposing and Mitigating
// Privacy Loss in Crowdsourced Survey Platforms" (CoNEXT Student
// Workshop 2013).
//
// The package re-exports the pieces a downstream user composes:
//
//   - privacy levels, the noise schedule and the at-source Obfuscator
//     (the paper's contribution),
//   - the per-user privacy-loss Ledger backed by differential-privacy
//     accounting,
//   - the survey model and the paper's survey catalog,
//   - the backend Server and device Client,
//   - the simulation substrates (population, platform, attack) and the
//     experiment harnesses that regenerate every figure and table.
//
// Quick start:
//
//	obf, _ := loki.NewObfuscator(loki.DefaultSchedule(), loki.DefaultOptions())
//	ledger, _ := loki.NewLedger(1e-6)
//	noisy, _ := obf.ObfuscateResponse(sv, answers, loki.Medium, rng, ledger)
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package loki

import (
	"loki/internal/aggregate"
	"loki/internal/attack"
	"loki/internal/budget"
	"loki/internal/checkpoint"
	"loki/internal/client"
	"loki/internal/core"
	"loki/internal/dp"
	"loki/internal/experiments"
	"loki/internal/ingest"
	"loki/internal/platform"
	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Privacy levels (core).
type (
	// Level is a user-facing privacy level (none/low/medium/high).
	Level = core.Level
	// Schedule maps levels to noise magnitudes.
	Schedule = core.Schedule
	// Options tune obfuscation (clamping, rounding, ledger δ).
	Options = core.Options
	// Obfuscator perturbs answers at source.
	Obfuscator = core.Obfuscator
	// Ledger tracks one user's cumulative privacy loss.
	Ledger = core.Ledger
)

// Re-exported privacy levels.
const (
	None   = core.None
	Low    = core.Low
	Medium = core.Medium
	High   = core.High
	// NumLevels is the number of privacy levels.
	NumLevels = core.NumLevels
)

// Core constructors.
var (
	// NewObfuscator validates a schedule and options and returns an
	// at-source obfuscator.
	NewObfuscator = core.NewObfuscator
	// NewLedger creates a per-user privacy-loss ledger reporting at δ.
	NewLedger = core.NewLedger
	// DefaultSchedule is the doubling σ schedule {0, 0.5, 1, 2}.
	DefaultSchedule = core.DefaultSchedule
	// LinearSchedule is the alternative linear schedule.
	LinearSchedule = core.LinearSchedule
	// DefaultOptions returns unclamped, unrounded obfuscation with
	// δ=1e-6.
	DefaultOptions = core.DefaultOptions
	// ParseLevel parses a level name.
	ParseLevel = core.ParseLevel
)

// Survey model.
type (
	// Survey is an ordered questionnaire.
	Survey = survey.Survey
	// Question is one survey question.
	Question = survey.Question
	// QuestionKind selects a question's answer type.
	QuestionKind = survey.QuestionKind
	// Answer is one answer to a question.
	Answer = survey.Answer
	// Response is one worker's completed survey.
	Response = survey.Response
)

// Question kinds.
const (
	// Rating is a bounded numeric scale question (1..5 stars).
	Rating = survey.Rating
	// MultipleChoice is a single-select categorical question.
	MultipleChoice = survey.MultipleChoice
	// Numeric is a bounded integer question.
	Numeric = survey.Numeric
	// FreeText is an unconstrained text question (not obfuscatable).
	FreeText = survey.FreeText
)

// AuditReport is the linkage-risk audit of a requester's survey
// portfolio.
type AuditReport = survey.AuditReport

// Survey constructors and catalog.
var (
	// AuditPortfolio reports how close a set of surveys comes to jointly
	// harvesting the {date of birth, gender, ZIP} quasi-identifier.
	AuditPortfolio = survey.AuditPortfolio
	// RatingAnswer, NumericAnswer, ChoiceAnswer and TextAnswer build
	// answers of each kind.
	RatingAnswer  = survey.RatingAnswer
	NumericAnswer = survey.NumericAnswer
	ChoiceAnswer  = survey.ChoiceAnswer
	TextAnswer    = survey.TextAnswer
	// The paper's surveys.
	AstrologySurvey   = survey.Astrology
	MatchmakingSurvey = survey.Matchmaking
	CoverageSurvey    = survey.Coverage
	HealthSurvey      = survey.Health
	AwarenessSurvey   = survey.Awareness
	LecturerSurvey    = survey.Lecturers
)

// Differential privacy.
type (
	// PrivacyParams is an (ε, δ) guarantee.
	PrivacyParams = dp.Params
	// Accountant tracks privacy events.
	Accountant = dp.Accountant
)

// Simulation substrates.
type (
	// Population is a synthetic region of persons.
	Population = population.Population
	// Registry is the public identified dataset used for
	// re-identification.
	Registry = population.Registry
	// Platform is the AMT-style crowdsourcing engine.
	Platform = platform.Platform
	// AttackPipeline is the §2 de-anonymization pipeline.
	AttackPipeline = attack.Pipeline
	// AttackResult is its outcome.
	AttackResult = attack.Result
)

// Substrate constructors.
var (
	// NewRNG returns a deterministic seeded generator.
	NewRNG = rng.New
	// GeneratePopulation builds a synthetic region.
	GeneratePopulation = population.Generate
	// DefaultPopulationConfig is the calibrated region config.
	DefaultPopulationConfig = population.DefaultConfig
	// NewRegistry indexes a population for re-identification.
	NewRegistry = population.NewRegistry
	// NewPlatform opens a crowdsourcing platform over a population.
	NewPlatform = platform.New
	// DefaultPlatformConfig is the calibrated platform config.
	DefaultPlatformConfig = platform.DefaultConfig
	// NewAttack builds the de-anonymization pipeline.
	NewAttack = attack.New
	// DefaultAttackConfig enables the redundancy filter.
	DefaultAttackConfig = attack.DefaultConfig
)

// Backend and app.
type (
	// Server is the Loki backend (http.Handler).
	Server = server.Server
	// ServerConfig configures it.
	ServerConfig = server.Config
	// Client is the Loki app for one user.
	Client = client.Client
	// ClientConfig configures it.
	ClientConfig = client.Config
	// Store persists surveys and responses.
	Store = store.Store
	// PublishOutcome is what Store.Publish did: PublishCreated,
	// PublishUnchanged or PublishReplaced.
	PublishOutcome = store.Outcome
	// FileStoreOptions are the file store's options; SyncAlways is the
	// only sync policy and blocks the only codec.
	FileStoreOptions = store.FileOptions
	// SyncPolicy selects when the file store fsyncs appends.
	SyncPolicy = store.SyncPolicy
	// IngestStore is the group-committed durable store for
	// high-throughput response ingestion: one segmented WAL per store.
	IngestStore = ingest.Sharded
	// IngestConfig tunes commit window, segment size and compaction of
	// an IngestStore (and carries its shard label).
	IngestConfig = ingest.Config
	// IngestStats reports cumulative ingest counters (appends, group
	// commits, rotations, snapshots).
	IngestStats = ingest.Stats
	// IngestShardStats is one ingest log's observability snapshot
	// (segment counts, last compaction, counters).
	IngestShardStats = ingest.ShardStats
	// Estimator computes noise-aware aggregates from a full response
	// slice (the batch read path).
	Estimator = aggregate.Estimator
	// Accumulator folds responses one at a time into resumable
	// aggregate state; finalizing applies noise-debiasing at query time
	// in O(1) of the number of folded responses (the incremental read
	// path).
	Accumulator = aggregate.Accumulator
	// AccumulatorState is an Accumulator's serializable snapshot.
	AccumulatorState = aggregate.AccumulatorState
	// SurveyEstimate is a finalized survey-wide aggregate (questions,
	// choices, quality tally).
	SurveyEstimate = aggregate.SurveyEstimate
	// QualityTally counts responses passing the redundancy screen.
	QualityTally = aggregate.QualityTally
	// CheckpointLog is the durable log of live-aggregate checkpoints
	// (one file per survey, one record per shard): restore it into a
	// ServerConfig so restart catch-up scans only each shard's tail
	// beyond its own checkpoint cursor.
	CheckpointLog = checkpoint.Log
	// CheckpointRecord is one shard's durable checkpoint (partial
	// accumulator state + per-shard cursor + definition fingerprint +
	// shard layout).
	CheckpointRecord = checkpoint.Record
	// ShardRouter partitions the response stream across shards — one in
	// the classic standalone deployment, many on a cluster — behind the
	// interface ServerConfig.Router accepts. Implementations: LocalShards
	// (in-process stores) and RemoteShards (shardrpc clients).
	ShardRouter = shardset.ShardRouter
	// LocalShards is the in-process ShardRouter over per-shard stores.
	LocalShards = shardset.Local
	// LocalShardOptions tune a LocalShards (global shard IDs, journal).
	LocalShardOptions = shardset.LocalOptions
	// RemoteShards is the cluster-side ShardRouter: shard-addressed
	// calls forward to the owning nodes over shardrpc, submits are
	// group-batched per shard.
	RemoteShards = shardrpc.Remote
	// ShardRPCClient speaks the internal cluster transport to one node.
	ShardRPCClient = shardrpc.Client
	// ShardRPCHandler serves the cluster transport over a node backend.
	ShardRPCHandler = shardrpc.Handler
	// ClusterNode adapts a Server with a local router into the shardrpc
	// backend frontends and other nodes talk to; by the placement
	// manifest it is each hosted shard's primary, follower or fenced
	// copy.
	ClusterNode = server.Node
	// ShardPartial is one shard's partial-accumulator answer on the
	// cluster transport (full, delta, or not-modified — the frontend
	// cache's conditional fetch).
	ShardPartial = shardrpc.Partial
	// JournalShardStats reports one shard journal's retention state
	// (truncation base, retained entries/bytes, registered followers).
	JournalShardStats = shardset.JournalStats
	// FrontendCacheInfo is the frontend partial cache's admin report.
	FrontendCacheInfo = server.FrontendCacheInfo
	// BudgetConfig is the per-worker privacy-budget ceiling (cap ε at a
	// fixed δ) every budget shard enforces.
	BudgetConfig = budget.Config
	// BudgetCharge is one submit's debit request against a worker's
	// account.
	BudgetCharge = budget.Charge
	// BudgetOutcome reports one charge's decision: rejected or admitted,
	// with the spent and remaining ε after it.
	BudgetOutcome = budget.Outcome
	// BudgetAccount is a worker's folded privacy spend (zCDP rho,
	// unprotected disclosures, charge/refund counters).
	BudgetAccount = budget.Account
	// BudgetShardStats is one budget shard's admin snapshot.
	BudgetShardStats = budget.ShardStats
	// BudgetCharger is the accounting interface the submit path consults:
	// a BudgetSet in-process, or a RemoteBudgetCharger on frontends.
	BudgetCharger = budget.Charger
	// BudgetSet hosts budget shards with a shared durable charge journal
	// — the whole shard space standalone, the node's owned subset on
	// clusters.
	BudgetSet = budget.Set
	// BudgetSetOptions configure NewBudgetSet (shard space, hosted
	// subset, journal directory, cap).
	BudgetSetOptions = budget.SetOptions
	// CheckpointOptions are the checkpoint log's options; blocks are
	// the only codec.
	CheckpointOptions = checkpoint.Options
	// BudgetError is the client-side typed form of a 429
	// budget_exhausted refusal: Retry-After plus remaining (ε, δ).
	BudgetError = client.BudgetError
	// ThrottleError is the client-side typed form of a 429
	// overloaded/rate_limited refusal: the short code plus the server's
	// Retry-After hint.
	ThrottleError = client.ThrottleError
	// Submitter is the client's batching async submit pipeline:
	// responses coalesce into batch uploads, settlement is per record,
	// acked-durable records are never re-sent, throttled records retry
	// with backoff honoring Retry-After.
	Submitter = client.Submitter
	// SubmitterConfig tunes batch size, linger, inflight bound and the
	// retry policy.
	SubmitterConfig = client.SubmitterConfig
	// SubmitOutcome is one record's final verdict from a Submitter.
	SubmitOutcome = client.SubmitOutcome
	// SubmitterStats are a Submitter's cumulative pipeline counters.
	SubmitterStats = client.SubmitterStats
	// AdmissionInfo is the server's overload-protection admin snapshot
	// (inflight/queue depth with high-water marks, admitted/shed/
	// throttled counters) — present only when admission knobs are set.
	AdmissionInfo = server.AdmissionInfo
	// BatchSubmitRequest and BatchSubmitResult are the batching submit
	// endpoint's wire shapes (POST /api/v1/responses); BatchSubmitItem
	// is one record's request-aligned verdict.
	BatchSubmitRequest = server.BatchSubmitRequest
	BatchSubmitResult  = server.BatchSubmitResult
	BatchSubmitItem    = server.BatchSubmitItem
)

// SyncAlways, the file store's one sync policy, fsyncs every append
// before acknowledging it.
const SyncAlways = store.SyncAlways

// The outcomes of Store.Publish.
const (
	PublishUnchanged = store.Unchanged
	PublishCreated   = store.Created
	PublishReplaced  = store.Replaced
)

// Backend constructors.
var (
	// NewServer builds the backend.
	NewServer = server.New
	// NewClient builds the app.
	NewClient = client.New
	// NewMemStore is the in-memory store.
	NewMemStore = store.NewMem
	// OpenFileStore is the durable file store: one blockio log, fsync
	// per append. A JSON-lines store file is converted on open.
	OpenFileStore = store.OpenFile
	// OpenFileStoreWith is OpenFileStore with FileStoreOptions.
	OpenFileStoreWith = store.OpenFileWith
	// OpenIngestStore is the segmented-WAL store built for concurrent
	// submission at scale.
	OpenIngestStore = ingest.Open
	// OpenCheckpointLog opens (replaying, with torn-tail repair) the
	// durable live-aggregate checkpoint log rooted at a directory;
	// OpenCheckpointLogWith takes CheckpointOptions.
	OpenCheckpointLog     = checkpoint.Open
	OpenCheckpointLogWith = checkpoint.OpenWith
	// NewLocalShards builds the in-process shard router over per-shard
	// stores.
	NewLocalShards = shardset.NewLocal
	// NewShardRPCClient connects to one cluster node's shardrpc
	// surface.
	NewShardRPCClient = shardrpc.NewClient
	// NewShardRPCHandler serves shardrpc over a node backend.
	NewShardRPCHandler = shardrpc.NewHandler
	// NewRemoteShardsRoundRobin builds the cluster router over node
	// clients with the canonical round-robin layout.
	NewRemoteShardsRoundRobin = shardrpc.NewRemoteRoundRobin
	// NewClusterNode wraps a Server for shardrpc serving.
	NewClusterNode = server.NewNode
	// NewEstimator builds the noise-aware aggregator.
	NewEstimator = aggregate.NewEstimator
	// NewAccumulator builds an empty incremental aggregator for one
	// survey.
	NewAccumulator = aggregate.NewAccumulator
	// RestoreAccumulator resumes an accumulator from a snapshot.
	RestoreAccumulator = aggregate.RestoreAccumulator
	// CollectResponses materializes a survey's responses through the
	// store's streaming scan.
	CollectResponses = store.CollectResponses
	// NewBudgetSet opens (replaying the charge journal) a set of hosted
	// privacy-budget shards.
	NewBudgetSet = budget.NewSet
	// NewRemoteBudgetCharger is the frontend-side Charger routing charges
	// to the owning nodes over shardrpc.
	NewRemoteBudgetCharger = shardrpc.NewRemoteCharger
	// BudgetRoute maps a worker ID to its global budget shard — the same
	// hash every frontend and node uses, which is what makes cross-
	// frontend double-spend impossible.
	BudgetRoute = budget.Route
)

// ErrBudgetExhausted marks a submit refused because the worker's
// cumulative privacy spend would exceed the configured cap; the HTTP
// surface maps it to 429 with code "budget_exhausted".
var ErrBudgetExhausted = budget.ErrExhausted

// ErrSubmitterClosed is returned by Submitter.Submit once Close has
// begun; already-enqueued records still flush.
var ErrSubmitterClosed = client.ErrSubmitterClosed

// Experiments: every figure and table of the paper.
var (
	// RunDeanonymization reproduces §2 (E1+E2).
	RunDeanonymization = experiments.RunDeanonymization
	// DefaultDeanonConfig is its paper-shaped config.
	DefaultDeanonConfig = experiments.DefaultDeanonConfig
	// RunLecturerTrial reproduces Fig. 2 (E3+E4).
	RunLecturerTrial = experiments.RunLecturerTrial
	// DefaultTrialConfig is its paper-shaped config.
	DefaultTrialConfig = experiments.DefaultTrialConfig
	// RunTrustedComparison reproduces the §3.2 anecdote (E5).
	RunTrustedComparison = experiments.RunTrustedComparison
	// RunLevelTakeup reproduces the take-up distribution (E6).
	RunLevelTakeup = experiments.RunLevelTakeup
	// RunAccuracySweep is ablation A1.
	RunAccuracySweep = experiments.RunAccuracySweep
	// RunIDPolicyAblation is ablation A2.
	RunIDPolicyAblation = experiments.RunIDPolicyAblation
	// RunFilterAblation is ablation A3.
	RunFilterAblation = experiments.RunFilterAblation
	// RunEstimatorAblation is ablation A4.
	RunEstimatorAblation = experiments.RunEstimatorAblation
	// RunLedgerGrowth is ablation A5.
	RunLedgerGrowth = experiments.RunLedgerGrowth
	// RunLinkageGrowth is ablation A6 (anonymity collapse per survey).
	RunLinkageGrowth = experiments.RunLinkageGrowth
	// RunNoiseComparison is ablation A7 (Gaussian vs Laplace noise).
	RunNoiseComparison = experiments.RunNoiseComparison
	// RunBalancedCollection is ablation A8 (budget balancing across the
	// user base).
	RunBalancedCollection = experiments.RunBalancedCollection
	// RunDefense is the E7 extension: the §2 attack against Loki
	// uploads.
	RunDefense = experiments.RunDefense
	// DefaultDefenseConfig is its paper-shaped config.
	DefaultDefenseConfig = experiments.DefaultDefenseConfig
)
