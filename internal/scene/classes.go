package scene

import "fmt"

// ClassID identifies an object class in the global vocabulary shared by all
// domains. Models predict over this vocabulary; tasks restrict attention to
// a subset of it.
type ClassID int

// The global object vocabulary. Profiles are chosen so that classes are
// separable by attribute combinations but share individual attributes across
// domains (e.g. lesions and ripe fruit are both red discs, differing in
// texture and size) — this is what makes task conditioning matter.
const (
	Car ClassID = iota
	Truck
	Pedestrian
	Cyclist
	TrafficCone
	Lesion
	Instrument
	Vial
	Gear
	Bolt
	CrackDefect
	RipeFruit
	UnripeFruit
	LeafCluster
	NumClasses
)

// classInfo pairs a class name with its attribute profile.
type classInfo struct {
	name    string
	profile Profile
}

var classTable = [NumClasses]classInfo{
	Car:         {"car", Profile{Square, Blue, Solid, Medium}},
	Truck:       {"truck", Profile{Square, Gray, Solid, Large}},
	Pedestrian:  {"pedestrian", Profile{Triangle, Orange, Solid, Medium}},
	Cyclist:     {"cyclist", Profile{Diamond, Cyan, Solid, Small}},
	TrafficCone: {"traffic_cone", Profile{Triangle, Yellow, Striped, Small}},
	Lesion:      {"lesion", Profile{Disc, Red, Dotted, Small}},
	Instrument:  {"instrument", Profile{Cross, White, Solid, Medium}},
	Vial:        {"vial", Profile{Square, Purple, Solid, Small}},
	Gear:        {"gear", Profile{Ring, Gray, Solid, Medium}},
	Bolt:        {"bolt", Profile{Disc, Gray, Solid, Small}},
	CrackDefect: {"crack_defect", Profile{Cross, Red, Striped, Medium}},
	RipeFruit:   {"ripe_fruit", Profile{Disc, Red, Solid, Medium}},
	UnripeFruit: {"unripe_fruit", Profile{Disc, Green, Solid, Medium}},
	LeafCluster: {"leaf_cluster", Profile{Diamond, Green, Dotted, Medium}},
}

// Name returns the canonical snake_case class name.
func (c ClassID) Name() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classTable[c].name
}

// Profile returns the class's attribute profile.
func (c ClassID) Profile() Profile {
	if c < 0 || c >= NumClasses {
		panic(fmt.Sprintf("scene: invalid class %d", int(c)))
	}
	return classTable[c].profile
}

// DomainID identifies an application domain (a mission context).
type DomainID int

// The four evaluation domains, mirroring the application areas the paper's
// introduction motivates (autonomous driving, healthcare, industrial
// automation) plus an agriculture domain for the few-shot study.
const (
	Driving DomainID = iota
	Medical
	Industrial
	Orchard
	NumDomains
)

// Domain describes one application domain: its background statistics and the
// classes that occur in it.
type Domain struct {
	ID   DomainID
	Name string
	// Background is the base RGB the renderer fills before adding
	// gradient and noise.
	Background [3]float32
	// NoiseStd is the per-pixel Gaussian noise level.
	NoiseStd float32
	// Classes are the foreground classes native to this domain.
	Classes []ClassID
	// Clutter are non-target classes that may appear as distractors.
	Clutter []ClassID
}

var domainTable = [NumDomains]Domain{
	Driving: {
		ID: Driving, Name: "driving",
		Background: [3]float32{0.30, 0.30, 0.32}, NoiseStd: 0.04,
		Classes: []ClassID{Car, Truck, Pedestrian, Cyclist, TrafficCone},
		Clutter: []ClassID{Bolt, LeafCluster},
	},
	Medical: {
		ID: Medical, Name: "medical",
		Background: [3]float32{0.78, 0.74, 0.72}, NoiseStd: 0.03,
		Classes: []ClassID{Lesion, Instrument, Vial},
		Clutter: []ClassID{Bolt, Vial},
	},
	Industrial: {
		ID: Industrial, Name: "industrial",
		Background: [3]float32{0.45, 0.42, 0.40}, NoiseStd: 0.05,
		Classes: []ClassID{Gear, Bolt, CrackDefect},
		Clutter: []ClassID{TrafficCone, Vial},
	},
	Orchard: {
		ID: Orchard, Name: "orchard",
		Background: [3]float32{0.35, 0.48, 0.28}, NoiseStd: 0.05,
		Classes: []ClassID{RipeFruit, UnripeFruit, LeafCluster},
		Clutter: []ClassID{Lesion},
	},
}

// GetDomain returns the descriptor for id.
func GetDomain(id DomainID) Domain {
	if id < 0 || id >= NumDomains {
		panic(fmt.Sprintf("scene: invalid domain %d", int(id)))
	}
	return domainTable[id]
}

// DomainByName looks a domain up by name.
func DomainByName(name string) (Domain, bool) {
	for i := DomainID(0); i < NumDomains; i++ {
		if domainTable[i].Name == name {
			return domainTable[i], true
		}
	}
	return Domain{}, false
}
