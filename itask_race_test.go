package itask

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"itask/internal/registry"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// The facade promises lock-free reads concurrent with any mutation — not
// just safety after setup, which is all the old taskMu comment guaranteed.
// Detect and DetectBatchOn run against concurrent DefineTask, few-shot
// AdaptStudent, student republishes, and explicit registry rollbacks; run
// under -race, any torn read of the task table or a routing snapshot fails
// the test.
func TestDetectRacesWithMutation(t *testing.T) {
	opts := DefaultOptions()
	rng := tensor.NewRNG(23)
	dir := t.TempDir()
	teacherPath := filepath.Join(dir, "teacher.ckpt")
	if err := vit.New(opts.TeacherCfg, rng.Split()).SaveFile(teacherPath); err != nil {
		t.Fatal(err)
	}
	studentPath := filepath.Join(dir, "student.ckpt")
	if err := vit.New(opts.StudentCfg, rng.Split()).SaveFile(studentPath); err != nil {
		t.Fatal(err)
	}

	p := New(opts)
	if err := p.LoadGeneralist(teacherPath); err != nil {
		t.Fatal(err)
	}
	if err := p.DefineTask("patrol", "watch the perimeter for vehicles and people"); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadStudent("patrol", studentPath); err != nil {
		t.Fatal(err)
	}
	// Pre-publish an untrained few-shot base so AdaptStudent skips the
	// expensive base distillation and the race window stays tight.
	base := vit.New(opts.StudentCfg, rng.Split())
	bsum, err := base.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Registry().Publish(registry.Artifact{
		Name: FewShotBaseArtifact, Kind: registry.FewShotBase,
		Bytes: int64(base.NumParams() * 4), Checksum: bsum, Payload: base,
	}); err != nil {
		t.Fatal(err)
	}

	img := tensor.New(3, opts.TeacherCfg.ImageSize, opts.TeacherCfg.ImageSize)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readerErr := make(chan error, 1)
	reportErr := func(err error) {
		select {
		case readerErr <- err:
		default:
		}
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r%2 == 0 {
					if _, _, err := p.Detect("patrol", img); err != nil {
						reportErr(fmt.Errorf("Detect: %w", err))
					}
				} else {
					variant, err := p.ServeBackend().Route("patrol")
					if err == nil {
						_, _, err = p.DetectBatchOn(variant, "patrol", []*tensor.Tensor{img, img})
					}
					if err != nil {
						reportErr(fmt.Errorf("DetectBatchOn: %w", err))
					}
				}
			}
		}(r)
	}

	var mutators sync.WaitGroup
	mutators.Add(3)
	go func() { // new tasks appear mid-traffic, then serve immediately
		defer mutators.Done()
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("aux-%d", i)
			if err := p.DefineTask(name, "inspect the area for defects and tools"); err != nil {
				reportErr(err)
				return
			}
			if _, _, err := p.Detect(name, img); err != nil {
				reportErr(fmt.Errorf("Detect on fresh task %s: %w", name, err))
			}
		}
	}()
	go func() { // few-shot adaptation republishes the patrol student
		defer mutators.Done()
		if err := p.AdaptStudent("patrol", Driving, 1); err != nil {
			reportErr(err)
		}
	}()
	go func() { // checkpoint republish + explicit rollback churn
		defer mutators.Done()
		for i := 0; i < 3; i++ {
			if err := p.LoadStudent("patrol", studentPath); err != nil {
				reportErr(err)
				return
			}
			if _, err := p.RollbackModel("patrol-student"); err != nil {
				reportErr(err)
				return
			}
		}
	}()

	mutators.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	// The churn is visible in the lifecycle counters, and patrol still serves.
	stats := p.RegistryStats()
	if stats.Publishes < 6 || stats.Rollbacks < 3 {
		t.Errorf("registry stats = %+v, want >= 6 publishes and >= 3 rollbacks", stats)
	}
	if _, _, err := p.Detect("patrol", img); err != nil {
		t.Fatalf("patrol no longer serves after churn: %v", err)
	}
}
