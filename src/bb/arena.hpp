// Slab arena allocator for admission bookkeeping nodes.
//
// A broker holding a million live reservations spends a large slice of
// its footprint (and its cache misses) on malloc'd map nodes: the
// commitment entries in CapacityPool. This allocator carves fixed-size
// blocks out of 64 KiB slabs and recycles freed blocks through per-size
// free lists: nodes of one container pack contiguously, there is no
// per-node malloc header, and a freed node is reused before a fresh slab
// byte is touched.
//
// Not thread-safe, like the pool that holds it: both belong to the one
// thread that owns their world (docs/ARCHITECTURE.md).
//
// Allocator semantics:
//   - Copies share the arena (shared_ptr'd state), so a container and its
//     node handles always deallocate into the slab set they came from.
//   - Container copies get a FRESH arena (select_on_container_copy_
//     construction): a copied pool is an independent owner and must not
//     allocate from, or outlive, the source's slabs.
//   - Move assignment propagates the allocator (steals nodes + slabs).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace e2e::bb {

namespace arena_detail {

inline constexpr std::size_t kSlabBytes = 64 * 1024;
inline constexpr std::size_t kAlign = 16;
/// Blocks above this fall through to operator new (none of the admission
/// node types get near it; the cap bounds free-list bookkeeping).
inline constexpr std::size_t kMaxBlockBytes = 512;
inline constexpr std::size_t kSizeClasses = kMaxBlockBytes / kAlign;

struct State {
  std::vector<std::unique_ptr<std::byte[]>> slabs;
  std::size_t slab_used = kSlabBytes;  // current slab's bump offset
  void* free_lists[kSizeClasses] = {};

  void* allocate(std::size_t bytes) {
    const std::size_t cls = (bytes + kAlign - 1) / kAlign;
    if (cls == 0 || cls > kSizeClasses) return ::operator new(bytes);
    if (void* head = free_lists[cls - 1]) {
      free_lists[cls - 1] = *static_cast<void**>(head);
      return head;
    }
    const std::size_t block = cls * kAlign;
    if (slab_used + block > kSlabBytes) {
      slabs.push_back(std::make_unique<std::byte[]>(kSlabBytes));
      slab_used = 0;
    }
    void* p = slabs.back().get() + slab_used;
    slab_used += block;
    return p;
  }

  void deallocate(void* p, std::size_t bytes) {
    const std::size_t cls = (bytes + kAlign - 1) / kAlign;
    if (cls == 0 || cls > kSizeClasses) {
      ::operator delete(p);
      return;
    }
    *static_cast<void**>(p) = free_lists[cls - 1];
    free_lists[cls - 1] = p;
  }

  /// Bytes held in slabs (footprint reporting).
  std::size_t slab_bytes() const { return slabs.size() * kSlabBytes; }
};

}  // namespace arena_detail

template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() : state_(std::make_shared<arena_detail::State>()) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : state_(other.state_) {}

  T* allocate(std::size_t n) {
    if (n != 1) {
      // Node containers allocate one node at a time; anything else isn't
      // worth free-list bookkeeping.
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    return static_cast<T*>(state_->allocate(sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    state_->deallocate(p, sizeof(T));
  }

  ArenaAllocator select_on_container_copy_construction() const {
    return ArenaAllocator();  // fresh arena: the copy has its own owner
  }

  std::size_t slab_bytes() const { return state_->slab_bytes(); }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return state_ == other.state_;
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const noexcept {
    return state_ != other.state_;
  }

 private:
  template <typename U>
  friend class ArenaAllocator;

  std::shared_ptr<arena_detail::State> state_;
};

}  // namespace e2e::bb
