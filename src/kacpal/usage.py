"""The help, built from kacpal.cli's command table: only -h or --help
loads it, so that no other call compiles it."""

from .cli import COMMANDS, COMMON_OPTIONS, REQUIRED


def usage(command: str | None) -> str:
    """The help of the command, or of kacpal for None, from COMMANDS."""
    if command is None:
        return "\n".join(
            [
                "usage: kacpal COMMAND --n INT --m INT [options]",
                "",
                "Exact classification and verification for the group algebras of",
                "generalised symmetric groups.",
                "",
                "commands:",
                *(f"  {name:<12}{entry[1]}" for name, entry in COMMANDS.items()),
                "",
                "kacpal COMMAND -h lists the options of COMMAND.",
                "",
            ]
        )
    _, help_line, _, own = COMMANDS[command]
    options = {**COMMON_OPTIONS, **own}
    forms = {name: _form(name, kind) for name, (kind, _) in options.items()}
    required = [forms[name] for name in REQUIRED if name in forms]
    optional = [f"[{form}]" for name, form in forms.items() if name not in REQUIRED]
    width = max(map(len, forms.values())) + 2
    return "\n".join(
        [
            f"usage: kacpal {command} {' '.join(required + optional)}",
            "",
            help_line,
            "",
            "options:",
            *(f"  {forms[name]:<{width}}{text}" for name, (_, text) in options.items()),
            f"  {'-h, --help':<{width}}show this help",
            "",
        ]
    )


def _form(name: str, kind) -> str:
    """The option with its value as the help writes it."""
    if kind is None:
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {'INT' if kind is int else kind}"
