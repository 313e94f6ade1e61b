// A std::vector whose resize() leaves new elements uninitialized. The
// index build allocates several O(n) arrays that a kernel overwrites in
// full right away; value-initializing them first is a serial fill, and
// it is also where the pages are first touched. With this vector both
// happen inside the parallel kernel that writes the elements. Reading an
// element before it is written is undefined, so use it only for arrays a
// kernel fills completely.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace fdbscan::exec {

/// std::allocator whose argument-less construct() leaves the element's
/// bytes untouched, even for types with default member initializers
/// (Point's zeroed coordinates). Storage from operator new implicitly
/// creates objects of implicit-lifetime types (aggregates and trivially
/// constructible classes, [intro.object]), so the element already exists.
template <class T>
struct UninitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };

  UninitAllocator() = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_copyable_v<U> &&
                      std::is_trivially_destructible_v<U>,
                  "only plain data may be left uninitialized");
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <class T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

}  // namespace fdbscan::exec
