"""Frozen value records, built without code generation.

`record` gives a class with annotated fields the behaviour of
`@dataclass(frozen=True)`: construction by position or keyword with
defaults, then `__post_init__`; no assignment or deletion; equality and
hashing over the field tuple; the dataclass `repr`; and an
`inspect.signature` listing the fields.  Its methods are defined once,
here, and shared by every record, so making a record class compiles
nothing: `dataclasses` `exec`s about five methods per class, which cost
most of a millisecond of each cold start per class.
"""

import inspect

__all__ = ["record"]


def record(cls: type) -> type:
    """Make cls a frozen record of the fields annotated in its body, in order;
    a field's class attribute, if any, is its default."""
    annotations = cls.__dict__.get("__annotations__", {})
    empty = inspect.Parameter.empty
    cls.__match_args__ = tuple(annotations)
    cls.__signature__ = inspect.Signature(
        [
            inspect.Parameter(
                name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=cls.__dict__.get(name, empty),
                annotation=annotation,
            )
            for name, annotation in annotations.items()
        ],
        return_annotation=None,
    )
    cls.__init__ = _init
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    return cls


def _init(self, *args, **kwargs) -> None:
    cls = type(self)
    names = cls.__match_args__
    if kwargs or len(args) != len(names):  # else every field by position
        args = _bind(cls, args, kwargs)
    self.__dict__.update(zip(names, args))
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """Every field's value, in field order, from the arguments of a call to
    cls; TypeError for a missing, unknown or duplicate argument."""
    names, defaults = cls.__match_args__, vars(cls)
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments, got {len(args)}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    if kwargs:
        name = next(iter(kwargs))
        problem = "multiple values for" if name in names else "an unexpected"
        raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
    return values


def _setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"
