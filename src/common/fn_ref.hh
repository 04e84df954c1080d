/**
 * @file
 * Non-owning reference to a callable.
 *
 * Two words: the callable's address and a plain function that calls
 * it, so building, copying or calling one never allocates (a
 * std::function stores any capture larger than its small inline
 * buffer on the heap). It binds only a named callable, never a
 * temporary, so it cannot be left pointing at a lambda that died at
 * the end of the statement that built it; the callable must outlive
 * every call through the reference.
 */

#ifndef NVO_COMMON_FN_REF_HH
#define NVO_COMMON_FN_REF_HH

#include <memory>
#include <type_traits>
#include <utility>

namespace nvo
{

template <typename Sig>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)>
{
  public:
    /** Empty: test with operator bool before calling. */
    FnRef() = default;

    template <typename F>
        requires(std::is_object_v<F> &&
                 !std::is_same_v<std::remove_const_t<F>, FnRef> &&
                 std::is_invocable_r_v<R, F &, Args...>)
    FnRef(F &fn) noexcept
        : obj(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call([](void *o, Args... args) -> R {
              return (*static_cast<F *>(o))(
                  std::forward<Args>(args)...);
          })
    {
    }

    R
    operator()(Args... args) const
    {
        return call(obj, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return call != nullptr; }

  private:
    void *obj = nullptr;
    R (*call)(void *, Args...) = nullptr;
};

} // namespace nvo

#endif // NVO_COMMON_FN_REF_HH
