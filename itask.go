package itask

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"itask/internal/dataset"
	"itask/internal/distill"
	"itask/internal/eval"
	"itask/internal/geom"
	"itask/internal/hwsim"
	"itask/internal/kg"
	"itask/internal/llm"
	"itask/internal/quant"
	"itask/internal/registry"
	"itask/internal/scene"
	"itask/internal/sched"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/vit"
	"itask/internal/zoo"
)

// Detection is one detected object, with the class resolved to its name.
type Detection struct {
	Box       geom.Box
	Class     string
	ClassID   int
	Score     float64
	Relevance float64 // knowledge-graph prior of the class for the task
}

// Options configures a Pipeline.
type Options struct {
	// Seed drives every random choice in the pipeline.
	Seed uint64
	// TeacherCfg and StudentCfg are the two model architectures. The class
	// count of both must be scene.NumClasses.
	TeacherCfg, StudentCfg vit.Config
	// Quant selects the generalist's quantization scheme.
	Quant quant.Config
	// Gen controls synthetic scene generation for training.
	Gen scene.GenConfig
	// TrainSamplesPerTask and TrainCfg control generalist training, and the
	// few-shot base's mixture.
	TrainSamplesPerTask int
	TrainCfg            distill.TrainConfig
	// DistillSamples and DistillCfg control per-task student distillation
	// and fine-tuning, and the few-shot base's distillation.
	DistillSamples int
	DistillCfg     distill.DistillConfig
	// PriorThreshold is the KG relevance below which detections are
	// filtered out for a task.
	PriorThreshold float64
	// Thresholds is the decode/eval operating point.
	Thresholds eval.Thresholds
	// Accel is the hardware design point used for latency/energy reports.
	Accel hwsim.AccelConfig
	// MemoryBudgetBytes is the edge RAM budget for the model cache.
	MemoryBudgetBytes int64
}

// DefaultOptions returns a laptop-scale configuration, with the zoo's
// architectures (internal/zoo), that trains in seconds per task.
func DefaultOptions() Options {
	r := zoo.NewRecipe(48, 64, 12, 12)
	return Options{
		Seed:                1,
		TeacherCfg:          r.TeacherCfg,
		StudentCfg:          r.StudentCfg,
		Quant:               quant.DefaultConfig(),
		Gen:                 r.Gen,
		TrainSamplesPerTask: r.TrainPerTask,
		TrainCfg:            r.TrainCfg,
		DistillSamples:      r.DistillPerTask,
		DistillCfg:          r.DistillCfg,
		PriorThreshold:      0.45,
		Thresholds:          eval.DefaultThresholds(),
		Accel:               hwsim.DefaultAccel(),
		MemoryBudgetBytes:   2 << 20,
	}
}

// Well-known artifact names published by the pipeline. Routable artifacts
// (the generalist and per-task students) additionally carry versioned IDs
// assigned by the registry.
const (
	// TeacherArtifact is the float multi-task teacher (provenance, never
	// routed).
	TeacherArtifact = "teacher"
	// FewShotBaseArtifact is the student-architecture multi-task base used
	// by AdaptStudent (never routed).
	FewShotBaseArtifact = "fewshot-base"
)

// GeneralistArtifact is the registry name of the deployed quantized
// generalist for a quantization width.
func GeneralistArtifact(bits int) string { return fmt.Sprintf("generalist-q%d", bits) }

// StudentArtifact is the registry name of a task's distilled student.
func StudentArtifact(task string) string { return task + "-student" }

// taskState is everything the pipeline knows about one defined task. It is
// immutable after creation: redefinition replaces the whole value in the
// copy-on-write task map. Model state is NOT stored here — students live in
// the registry.
type taskState struct {
	name        string
	description string
	graph       *kg.Graph
	priors      []float64
}

// taskMap is the copy-on-write table of defined tasks, swapped atomically.
type taskMap map[string]*taskState

// Pipeline is the end-to-end iTask system: simulated LLM, knowledge graphs,
// the trained generalist (float teacher + quantized deployment), per-task
// distilled students, and the situational scheduler.
//
// Pipeline is a thin facade: all model state lives in an internal
// versioned registry (see internal/registry) behind an atomically-swapped
// snapshot, and the task table is an atomically-swapped copy-on-write map.
//
// Concurrency: every method is safe for concurrent use at any time — not
// just after setup. Readers (Detect, DetectBatchOn, Tasks,
// Priors, Graph, Teacher, Quantized, Student, and the serve.Backend adapter)
// are lock-free: they load the current registry snapshot and task map and
// never block on writers. Writers (DefineTask, TrainGeneralist, Load*,
// Distill*, Adapt*, Reload*) serialize on an internal mutex, build the new
// model off to the side, and publish it as a new immutable version; in-flight
// requests finish on the version they started with.
type Pipeline struct {
	opts Options
	llm  *llm.SimLLM

	// mu serializes writers (task definition, training, distillation,
	// adaptation, checkpoint loads) and guards rng.
	mu  sync.Mutex
	rng *tensor.RNG

	tasks atomic.Pointer[taskMap]

	reg       *registry.Registry
	scheduler *sched.Scheduler

	// accelCosts[kind] is that configuration's simulated accelerator cost,
	// batch size → accelCost, filled on first use; a request reads it
	// without a lock.
	accelCosts [2]sync.Map
}

// accelCost is the per-image cost hwsim reports for one configuration at
// one batch size.
type accelCost struct{ latencyUS, energyUJ float64 }

// New creates a pipeline. Call TrainGeneralist before Detect.
func New(opts Options) *Pipeline {
	if opts.TeacherCfg.Classes != int(scene.NumClasses) || opts.StudentCfg.Classes != int(scene.NumClasses) {
		panic(fmt.Sprintf("itask: model class count must be %d", scene.NumClasses))
	}
	reg := registry.New()
	p := &Pipeline{
		opts:      opts,
		llm:       llm.New(llm.DefaultOptions()),
		rng:       tensor.NewRNG(opts.Seed),
		reg:       reg,
		scheduler: sched.NewWith(reg, opts.MemoryBudgetBytes),
	}
	p.tasks.Store(&taskMap{})
	return p
}

// Registry exposes the pipeline's model registry for publication,
// rollback, and version introspection.
func (p *Pipeline) Registry() *registry.Registry { return p.reg }

// task looks up a defined task in the current task map (lock-free).
func (p *Pipeline) task(name string) (*taskState, bool) {
	ts, ok := (*p.tasks.Load())[name]
	return ts, ok
}

// payloadOf returns the Payload of a name's active artifact, if any.
func payloadOf[T any](p *Pipeline, name string) (T, bool) {
	var zero T
	a, ok := p.reg.Snapshot().Active(name)
	if !ok {
		return zero, false
	}
	v, ok := a.Payload.(T)
	if !ok {
		return zero, false
	}
	return v, true
}

// teacherModel returns the active teacher weights (nil before training).
func (p *Pipeline) teacherModel() *vit.Model {
	m, _ := payloadOf[*vit.Model](p, TeacherArtifact)
	return m
}

// ready reports whether a generalist is published (the minimum model state
// for serving any task).
func (p *Pipeline) ready() bool {
	_, ok := p.reg.Snapshot().Generalist()
	return ok
}

// publishGeneralist publishes the float teacher (provenance) and the
// quantized generalist (routable) as the next versions of their names. The
// generalist's checksum names the teacher's and the scheme, so pipelines
// that loaded the same teacher agree on it. Caller holds p.mu.
func (p *Pipeline) publishGeneralist(teacher *vit.Model, qm *quant.Model) error {
	tsum, err := teacher.Checksum()
	if err != nil {
		return fmt.Errorf("itask: checksumming teacher: %w", err)
	}
	if _, err := p.reg.Publish(registry.Artifact{
		Name: TeacherArtifact, Kind: registry.Teacher,
		Bytes: int64(teacher.NumParams() * 4), Checksum: tsum, Payload: teacher,
	}); err != nil {
		return err
	}
	th := p.opts.Thresholds
	lat := hwsim.SimulateAccel(p.opts.Accel, p.opts.TeacherCfg).LatencyUS
	_, err = p.reg.Publish(registry.Artifact{
		Name:      GeneralistArtifact(p.opts.Quant.Bits),
		Kind:      registry.Generalist,
		Bytes:     int64(qm.WeightBytes()),
		LatencyUS: lat,
		Checksum:  quant.Checksum(tsum, qm.QC),
		Detect: func(imgs []*tensor.Tensor) [][]geom.Scored {
			return qm.DetectBatch(imgs, th.Obj, th.NMSIoU)
		},
		Payload: qm,
	})
	return err
}

// publishStudent publishes a task-specific student as the next version of
// its name. Caller holds p.mu.
func (p *Pipeline) publishStudent(taskName string, student *vit.Model) error {
	sum, err := student.Checksum()
	if err != nil {
		return fmt.Errorf("itask: checksumming student for %q: %w", taskName, err)
	}
	th := p.opts.Thresholds
	lat := hwsim.SimulateAccel(p.opts.Accel, p.opts.StudentCfg).LatencyUS
	_, err = p.reg.Publish(registry.Artifact{
		Name:      StudentArtifact(taskName),
		Kind:      registry.TaskSpecific,
		Task:      taskName,
		Bytes:     int64(student.NumParams() * 4),
		LatencyUS: lat,
		Checksum:  sum,
		Detect:    registry.BatchDetectFunc(eval.BatchDetectorOf(student, th)),
		Payload:   student,
	})
	return err
}

// recipe is the zoo recipe the pipeline's options describe.
func (p *Pipeline) recipe() zoo.Recipe {
	o := p.opts
	return zoo.Recipe{
		TeacherCfg: o.TeacherCfg, StudentCfg: o.StudentCfg, Gen: o.Gen,
		TrainPerTask: o.TrainSamplesPerTask, DistillPerTask: o.DistillSamples,
		TrainCfg: o.TrainCfg, DistillCfg: o.DistillCfg,
	}
}

// TrainGeneralist trains the multi-task teacher on a mixture of the given
// tasks (nil means the four standard tasks), quantizes it into the
// deployable generalist, and publishes both into the registry.
func (p *Pipeline) TrainGeneralist(tasks []dataset.Task) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.teacherModel() != nil {
		return fmt.Errorf("itask: generalist already trained")
	}
	if tasks == nil {
		tasks = dataset.StandardTasks()
	}
	teacher, err := zoo.TrainTeacher(p.recipe(), tasks, p.rng)
	if err != nil {
		return fmt.Errorf("itask: %w", err)
	}
	qm, err := quant.FromViT(teacher, p.opts.Quant)
	if err != nil {
		return fmt.Errorf("itask: quantizing generalist: %w", err)
	}
	return p.publishGeneralist(teacher, qm)
}

// LoadGeneralist initializes the generalist from a teacher checkpoint
// (written by itask-train or vit.SaveParams) instead of training: the
// checkpoint is loaded into the teacher architecture, quantized, and
// published. Use ReloadGeneralist to publish further versions while serving.
func (p *Pipeline) LoadGeneralist(checkpointPath string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.teacherModel() != nil {
		return fmt.Errorf("itask: generalist already initialized")
	}
	return p.loadGeneralistLocked(checkpointPath, "")
}

// ReloadGeneralist publishes a new generalist version from a teacher
// checkpoint while the pipeline keeps serving: the checkpoint loads into a
// fresh model off to the side, is quantized, and becomes the routed version
// in one atomic snapshot swap — in-flight requests finish on the previous
// version. When sum is non-empty the checkpoint bytes are verified against
// it (registry-manifest integrity) before anything is published.
func (p *Pipeline) ReloadGeneralist(checkpointPath, sum string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loadGeneralistLocked(checkpointPath, sum)
}

// loadGeneralistLocked loads, quantizes, and publishes a teacher checkpoint.
// Caller holds p.mu.
func (p *Pipeline) loadGeneralistLocked(checkpointPath, sum string) error {
	teacher := vit.New(p.opts.TeacherCfg, p.rng.Split())
	var err error
	if sum != "" {
		err = teacher.LoadFileVerify(checkpointPath, sum)
	} else {
		err = teacher.LoadFile(checkpointPath)
	}
	if err != nil {
		return fmt.Errorf("itask: loading generalist checkpoint: %w", err)
	}
	qm, err := quant.FromViT(teacher, p.opts.Quant)
	if err != nil {
		return fmt.Errorf("itask: quantizing generalist: %w", err)
	}
	return p.publishGeneralist(teacher, qm)
}

// LoadStudent publishes a task-specific student from a checkpoint written by
// itask-train. The task must already be defined. Loading again (a retrained
// checkpoint) publishes the next version and atomically routes it.
func (p *Pipeline) LoadStudent(taskName, checkpointPath string) error {
	return p.LoadStudentVerified(taskName, checkpointPath, "")
}

// LoadStudentVerified is LoadStudent with checkpoint-integrity verification
// against a registry-manifest checksum (skipped when sum is empty).
func (p *Pipeline) LoadStudentVerified(taskName, checkpointPath, sum string) error {
	ts, ok := p.task(taskName)
	if !ok {
		return fmt.Errorf("itask: task %q not defined", taskName)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	student := vit.New(p.opts.StudentCfg, p.rng.Split())
	var err error
	if sum != "" {
		err = student.LoadFileVerify(checkpointPath, sum)
	} else {
		err = student.LoadFile(checkpointPath)
	}
	if err != nil {
		return fmt.Errorf("itask: loading student checkpoint: %w", err)
	}
	if err := zoo.WithPriors(student, ts.priors); err != nil {
		return err
	}
	return p.publishStudent(taskName, student)
}

// DefineTask runs the simulated LLM over a mission description, stores the
// resulting knowledge graph and class priors, and makes the task servable
// (by the generalist until a student is distilled). The task table swap is
// atomic: concurrent detection sees either the old set of tasks or the new
// one, never a partial write.
func (p *Pipeline) DefineTask(name, description string) error {
	if name == "" {
		return fmt.Errorf("itask: empty task name")
	}
	if _, dup := p.task(name); dup {
		return fmt.Errorf("itask: task %q already defined", name)
	}
	g, err := p.llm.Generate(name, description)
	if err != nil {
		return fmt.Errorf("itask: generating knowledge graph: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := *p.tasks.Load()
	if _, dup := old[name]; dup {
		return fmt.Errorf("itask: task %q already defined", name)
	}
	next := make(taskMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = &taskState{
		name:        name,
		description: description,
		graph:       g,
		priors:      kg.ClassPriors(g, "task:"+name),
	}
	p.tasks.Store(&next)
	return nil
}

// DistillStudent builds the task-specific configuration for a defined task:
// the zoo's student (distilled from the teacher on task-domain data, then
// fine-tuned on it), conditioned with the task's KG priors, and published
// into the registry. Distilling again for the same task publishes the next
// version and atomically routes it — in-flight requests finish on the
// previous version.
func (p *Pipeline) DistillStudent(taskName string, domain scene.DomainID) error {
	ts, ok := p.task(taskName)
	if !ok {
		return fmt.Errorf("itask: task %q not defined", taskName)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	teacher := p.teacherModel()
	if teacher == nil {
		return fmt.Errorf("itask: train the generalist first")
	}
	task := dataset.Task{Name: taskName, Domain: domain}
	student, err := zoo.DistillStudent(p.recipe(), teacher, task, p.rng)
	if err != nil {
		return fmt.Errorf("itask: %w", err)
	}
	if err := zoo.WithPriors(student, ts.priors); err != nil {
		return err
	}
	return p.publishStudent(taskName, student)
}

// AdaptStudent builds a task-specific configuration from only `shots`
// support scenes per class — the few-shot path (claim C5): the zoo's base
// (a student-sized model distilled once from the teacher on the task
// mixture, published as FewShotBaseArtifact) is cloned, conditioned with
// the task's knowledge-graph priors, and fine-tuned on the tiny support
// set. Use DistillStudent instead when abundant task data is available.
// Adapting again publishes the next version.
func (p *Pipeline) AdaptStudent(taskName string, domain scene.DomainID, shots int) error {
	ts, ok := p.task(taskName)
	if !ok {
		return fmt.Errorf("itask: task %q not defined", taskName)
	}
	if shots <= 0 {
		return fmt.Errorf("itask: shots must be positive")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	teacher := p.teacherModel()
	if teacher == nil {
		return fmt.Errorf("itask: train the generalist first")
	}
	base, ok := payloadOf[*vit.Model](p, FewShotBaseArtifact)
	if !ok {
		var err error
		if base, err = zoo.DistillBase(p.recipe(), teacher, dataset.StandardTasks(), p.rng); err != nil {
			return fmt.Errorf("itask: %w", err)
		}
		bsum, err := base.Checksum()
		if err != nil {
			return fmt.Errorf("itask: checksumming few-shot base: %w", err)
		}
		if _, err := p.reg.Publish(registry.Artifact{
			Name: FewShotBaseArtifact, Kind: registry.FewShotBase,
			Bytes: int64(base.NumParams() * 4), Checksum: bsum, Payload: base,
		}); err != nil {
			return err
		}
	}
	student := vit.New(p.opts.StudentCfg, p.rng.Split())
	if err := base.CloneWeightsTo(student); err != nil {
		return err
	}
	task := dataset.Task{Name: taskName, Domain: domain, Description: ts.description}
	task.Classes = scene.GetDomain(domain).Classes
	support := dataset.BuildFewShot(task, shots, p.opts.Gen, p.rng.Split())
	fcfg := distill.DefaultFewShotConfig()
	fcfg.Train.Seed = p.rng.Uint64()
	if _, err := distill.FewShotAdapt(student, ts.priors, support, fcfg); err != nil {
		return fmt.Errorf("itask: few-shot adapting %q: %w", taskName, err)
	}
	return p.publishStudent(taskName, student)
}

// RollbackModel demotes the active version of a named artifact and
// reactivates the newest healthy prior version — the manual rollback lever
// behind automatic health-driven rollback.
func (p *Pipeline) RollbackModel(name string) (registry.ArtifactID, error) {
	return p.reg.Rollback(name)
}

// ModelInfo describes which configuration served a detection call.
type ModelInfo struct {
	Name string
	Kind string
	// Artifact is the full versioned artifact ID (name@vN#sum) that served
	// the call, for per-version attribution.
	Artifact string
	// LatencyUS and EnergyUJ are the simulated accelerator cost of the
	// inference that produced the detections.
	LatencyUS float64
	EnergyUJ  float64
}

// filterByPriors applies a task's knowledge-graph priors to raw
// detections: classes below PriorThreshold are dropped and survivors are
// annotated with their relevance. raw comes from NMS in descending score
// order, and dropping keeps it.
func (p *Pipeline) filterByPriors(ts *taskState, raw []geom.Scored) []Detection {
	out := make([]Detection, 0, len(raw))
	for _, d := range raw {
		rel := ts.priors[d.Class]
		if rel < p.opts.PriorThreshold {
			continue
		}
		out = append(out, Detection{
			Box:       d.Box,
			Class:     scene.ClassID(d.Class).Name(),
			ClassID:   d.Class,
			Score:     d.Score,
			Relevance: rel,
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// modelInfo builds the simulated accelerator cost report for an inference
// served by `model` at the given micro-batch size (per-image figures).
func (p *Pipeline) modelInfo(model *sched.Model, batch int) ModelInfo {
	cost := p.accelCost(model.Kind == sched.TaskSpecific, batch)
	return ModelInfo{
		Name:      model.Name,
		Kind:      model.Kind.String(),
		Artifact:  model.IDString(),
		LatencyUS: cost.latencyUS,
		EnergyUJ:  cost.energyUJ,
	}
}

// accelCost returns hwsim.SimulateAccelBatch's figures for the student or
// the generalist configuration at a batch size. The simulation is a pure
// function of the pipeline's options and the batch size, so each pair is
// simulated on first use and read from the table after that.
func (p *Pipeline) accelCost(student bool, batch int) accelCost {
	cfg, table := p.opts.TeacherCfg, &p.accelCosts[0]
	if student {
		cfg, table = p.opts.StudentCfg, &p.accelCosts[1]
	}
	cost, ok := table.Load(batch)
	if !ok {
		rep := hwsim.SimulateAccelBatch(p.opts.Accel, cfg, batch)
		cost, _ = table.LoadOrStore(batch, accelCost{latencyUS: rep.LatencyUS, energyUJ: rep.TotalUJ})
	}
	return cost.(accelCost)
}

// ValidateImage checks that img is a well-formed model input — a (3,S,S)
// tensor for the pipeline's configured image size — without running it.
// Malformed input fails with an error wrapping serve.ErrBadShape, so the
// serving layer (which calls this at admission via the ImageValidator
// interface) rejects it before it can reach a panicking kernel.
func (p *Pipeline) ValidateImage(img *tensor.Tensor) error {
	size := p.opts.TeacherCfg.ImageSize
	ch := p.opts.TeacherCfg.Channels
	switch {
	case img == nil:
		return fmt.Errorf("itask: nil image: %w", serve.ErrBadShape)
	case len(img.Shape) != 3 || img.Shape[0] != ch || img.Shape[1] != size || img.Shape[2] != size:
		return fmt.Errorf("itask: image shape %v, want [%d %d %d]: %w",
			img.Shape, ch, size, size, serve.ErrBadShape)
	case len(img.Data) != ch*size*size:
		return fmt.Errorf("itask: image data has %d values for shape %v: %w",
			len(img.Data), img.Shape, serve.ErrBadShape)
	}
	return nil
}

// Detect runs task-conditioned detection on one (3,H,W) image: the
// scheduler routes the task to a configuration and the image runs on it as a
// batch of one through DetectBatchOn, so a single frame gets exactly the
// answer it would get in a batch of one on the serving path. Lock-free with
// respect to concurrent task definition, training, and model publication.
func (p *Pipeline) Detect(taskName string, img *tensor.Tensor) ([]Detection, ModelInfo, error) {
	variant, err := serveBackend{p}.Route(taskName)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	dets, info, err := p.DetectBatchOn(variant, taskName, []*tensor.Tensor{img})
	if err != nil {
		return nil, ModelInfo{}, err
	}
	return dets[0], info, nil
}

// DetectBatchOn runs task-conditioned detection on a batch of images pinned
// to a registered variant — a bare artifact name or a full versioned ID: one
// scheduler selection and one batched model forward, then the task's KG
// priors filter each image's detections. It is the one detect path: Detect
// calls it with a batch of one, and the serving layer's lanes call it with
// each coalesced batch on exactly the variant it was coalesced (or degraded)
// for. A batch pinned to a version that has since been demoted transparently
// executes on the name's rolled-back active version. The returned ModelInfo
// carries per-image latency/energy at this batch size, so the
// weight-stationary amortization of batching shows up directly in the
// numbers.
func (p *Pipeline) DetectBatchOn(variant, taskName string, imgs []*tensor.Tensor) ([][]Detection, ModelInfo, error) {
	if len(imgs) == 0 {
		return nil, ModelInfo{}, fmt.Errorf("itask: empty batch")
	}
	ts, ok := p.task(taskName)
	if !ok {
		return nil, ModelInfo{}, fmt.Errorf("itask: task %q not defined", taskName)
	}
	if !p.ready() {
		return nil, ModelInfo{}, fmt.Errorf("itask: train the generalist first")
	}
	for i, img := range imgs {
		if err := p.ValidateImage(img); err != nil {
			return nil, ModelInfo{}, fmt.Errorf("image %d: %w", i, err)
		}
	}
	raw, model, err := p.scheduler.DetectBatchOn(variant, imgs)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	out := make([][]Detection, len(raw))
	for i, dets := range raw {
		out[i] = p.filterByPriors(ts, dets)
	}
	return out, p.modelInfo(model, len(imgs)), nil
}

// Tasks returns the names of all defined tasks, sorted. Lock-free.
func (p *Pipeline) Tasks() []string {
	m := *p.tasks.Load()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Priors returns the knowledge-graph class priors of a defined task,
// indexed by scene.ClassID.
func (p *Pipeline) Priors(taskName string) ([]float64, error) {
	ts, ok := p.task(taskName)
	if !ok {
		return nil, fmt.Errorf("itask: task %q not defined", taskName)
	}
	return append([]float64(nil), ts.priors...), nil
}

// Graph returns the knowledge graph of a defined task.
func (p *Pipeline) Graph(taskName string) (*kg.Graph, error) {
	ts, ok := p.task(taskName)
	if !ok {
		return nil, fmt.Errorf("itask: task %q not defined", taskName)
	}
	return ts.graph, nil
}

// Teacher exposes the trained float generalist (nil before training); used
// by the experiment harness. The returned model is the active published
// version — immutable, so safe to read concurrently.
func (p *Pipeline) Teacher() *vit.Model { return p.teacherModel() }

// Quantized exposes the deployed quantized generalist (nil before training).
func (p *Pipeline) Quantized() *quant.Model {
	if a, ok := p.reg.Snapshot().Generalist(); ok {
		if qm, ok := a.Payload.(*quant.Model); ok {
			return qm
		}
	}
	return nil
}

// Student returns the distilled model behind the task's active student
// version, or nil.
func (p *Pipeline) Student(taskName string) *vit.Model {
	if a, ok := p.reg.Snapshot().ForTask(taskName); ok {
		if m, ok := a.Payload.(*vit.Model); ok {
			return m
		}
	}
	return nil
}

// SchedulerStats reports model-cache behaviour.
func (p *Pipeline) SchedulerStats() sched.CacheStats { return p.scheduler.Stats() }

// RegistryStats reports the model registry's lifecycle counters: versions
// published, explicit rollbacks, and health demotions.
func (p *Pipeline) RegistryStats() registry.Stats { return p.reg.Stats() }

// serveBackend adapts the pipeline to the serving layer's Backend
// interface, plus the optional FallbackRouter, VariantEvicter,
// ImageValidator, CacheStatser, VariantHealthSink, RegistryStatser,
// RetirementNotifier, RouteEpocher and PayloadSizer extensions. Payloads are
// []Detection per image, never mutated once DetectBatch returns them: the
// result cache hands the same slice to every hit, and itask-serve's answer
// memo keys a hit's encoded detections by the slice's backing array and
// length.
type serveBackend struct{ p *Pipeline }

// Route names the variant the scheduler picks for a defined task.
func (b serveBackend) Route(task string) (string, error) {
	if _, ok := b.p.task(task); !ok {
		return "", fmt.Errorf("itask: task %q not defined", task)
	}
	if !b.p.ready() {
		return "", fmt.Errorf("itask: train the generalist first")
	}
	return b.p.scheduler.Route(sched.Request{Task: task})
}

// RouteFallback names the quantized generalist as the degraded path for
// any defined task, letting the server keep serving a task whose
// task-specific lane tripped its circuit breaker.
func (b serveBackend) RouteFallback(task string) (string, error) {
	if _, ok := b.p.task(task); !ok {
		return "", fmt.Errorf("itask: task %q not defined", task)
	}
	return b.p.scheduler.RouteFallback(sched.Request{Task: task})
}

func (b serveBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	dets, info, err := b.p.DetectBatchOn(variant, task, imgs)
	if err != nil {
		return nil, "", err
	}
	payloads := make([]any, len(dets))
	for i := range dets {
		payloads[i] = dets[i]
	}
	// Report the full versioned ID so serve metrics attribute work
	// per-version.
	return payloads, info.Artifact, nil
}

// EvictVariant drops the variant's weights from the model cache after the
// server saw it panic or hang, forcing a fresh load on next selection.
func (b serveBackend) EvictVariant(variant string) { b.p.scheduler.Evict(variant) }

// VariantUnhealthy is the serving layer's health verdict on a versioned
// variant (panic, watchdog abandonment, or a tripped breaker). Demoting the
// version in the registry quarantines it and — when it is the active
// version with a healthy predecessor — atomically rolls the name back to
// the last-known-good version, so subsequent routing (and retries of
// batches pinned to the bad version) land on restored weights.
func (b serveBackend) VariantUnhealthy(variant, task, reason string) {
	id, err := registry.ParseID(variant)
	if err != nil {
		return // bare or foreign variant string: nothing to demote
	}
	b.p.reg.Demote(id)
}

// ValidateImage rejects malformed input at admission (serve.ErrBadShape)
// before it can reach a kernel.
func (b serveBackend) ValidateImage(img *tensor.Tensor) error { return b.p.ValidateImage(img) }

func (b serveBackend) CacheStats() sched.CacheStats { return b.p.scheduler.Stats() }

// RegistryStats surfaces publish/rollback counters in serve snapshots.
func (b serveBackend) RegistryStats() registry.Stats { return b.p.reg.Stats() }

// RouteEpoch is the registry's snapshot sequence number — bumped by every
// publish, demotion, and rollback — so the serving layer can memoize
// routing decisions and have them invalidated the moment any model swap
// could change them. Lock-free (one atomic pointer load).
func (b serveBackend) RouteEpoch() uint64 { return b.p.reg.Snapshot().Seq() }

// OnRetire forwards the serving layer's retirement hook to the registry: it
// fires with each versioned artifact ID a publish supersedes or a
// demotion/rollback quarantines, inside the swap and before the new
// snapshot serves, so the server tears down the version's cached results
// (including lock-free hot-tier replicas) atomically with the version.
func (b serveBackend) OnRetire(fn func(artifact string)) { b.p.reg.OnRetire(fn) }

// PayloadBytes estimates the resident size of one DetectBatch payload
// ([]Detection) so the serving layer's result cache can charge entries
// against its byte budget.
func (b serveBackend) PayloadBytes(payload any) int64 {
	dets, ok := payload.([]Detection)
	if !ok {
		return 0 // unknown payload: let the cache apply its default
	}
	size := int64(unsafe.Sizeof(dets)) // slice header
	for i := range dets {
		size += int64(unsafe.Sizeof(dets[i])) + int64(len(dets[i].Class))
	}
	return size
}

// ServeBackend exposes the pipeline as a serve.Backend so a serve.Server
// (or cmd/itask-serve) can run concurrent inference over it, one frame per
// execution.
// Models may be (re)published, adapted, and rolled back while serving.
func (p *Pipeline) ServeBackend() serve.Backend { return serveBackend{p: p} }

// HardwareComparison simulates the deployed generalist on the accelerator,
// the GPU baseline, and the CPU baseline.
func (p *Pipeline) HardwareComparison() hwsim.Comparison {
	return hwsim.Compare(p.opts.Accel, hwsim.DefaultGPU(), hwsim.DefaultCPU(), p.opts.TeacherCfg)
}
