package stable

import (
	"fmt"
	"strings"
	"sync"
)

// Sim is the simulated in-memory backend: plain maps whose contents
// survive simulated rank failures (only volatile rank state is dropped
// on a goroutine kill) but not death of the hosting process. Every
// mutation is trivially atomic and immediately "durable" within that
// model, so Sync is a no-op.
type Sim struct {
	mu      sync.Mutex
	objects map[string][]byte
	streams streamSet
}

// NewSim returns an empty simulated backend.
func NewSim() *Sim {
	return &Sim{objects: make(map[string][]byte), streams: make(streamSet)}
}

// Put implements Backend. A key's value is overwritten in place (Get
// hands out copies), so a key rewritten with values of one size, as a
// checkpoint slot is, allocates nothing after its first write.
func (s *Sim) Put(key string, data []byte) error {
	s.mu.Lock()
	if IsStream(key) {
		st := s.streams.get(key)
		st.push(streamEntry{seq: st.tail + 1, data: append([]byte(nil), data...)})
	} else {
		s.objects[key] = append(s.objects[key][:0], data...)
	}
	s.mu.Unlock()
	return nil
}

// PutLazy implements Backend; for the in-memory model it is Put.
func (s *Sim) PutLazy(key string, data []byte) error { return s.Put(key, data) }

// Get implements Backend.
func (s *Sim) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.objects[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

// Delete implements Backend.
func (s *Sim) Delete(key string) error {
	s.mu.Lock()
	delete(s.objects, key)
	s.mu.Unlock()
	return nil
}

// Rename implements Backend.
func (s *Sim) Rename(oldKey, newKey string) error {
	if IsStream(newKey) {
		return errRenameToStream(newKey)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.objects[oldKey]
	if !ok {
		return fmt.Errorf("stable: rename %q: no such key", oldKey)
	}
	delete(s.objects, oldKey)
	s.objects[newKey] = v
	return nil
}

// Keys implements Backend.
func (s *Sim) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return sortedKeys(out)
}

// Len implements Backend.
func (s *Sim) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// Truncate implements Backend.
func (s *Sim) Truncate(name string, upTo int64) error {
	if err := checkStream(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams.get(name)
	st.trim(upTo, st.tail)
	return nil
}

// Rewind implements Backend.
func (s *Sim) Rewind(name string, tail int64) error {
	if err := checkStream(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.streams.get(name).rewind(name, tail)
	return err
}

// Scan implements Backend.
func (s *Sim) Scan(name string, fn func(seq int64, data []byte) error) error {
	if err := checkStream(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.streams[name]; st != nil {
		return st.scan(fn)
	}
	return nil
}

// Sync implements Backend; in-memory writes are already "durable".
func (s *Sim) Sync() error { return nil }

// Close implements Backend.
func (s *Sim) Close() error { return nil }
