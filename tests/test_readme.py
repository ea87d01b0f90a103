"""The atomlen commands of README.md, pinned byte for byte: each line that
starts with "atomlen " runs through cli.main as a shell would split it, in
text and --json form, and its stdout SHA-256 and exit code must match."""
import hashlib
import pathlib
import shlex

import pytest

from atomlen import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# command: (text SHA-256, text exit code, --json SHA-256, --json exit code)
PINNED = {
    'atomlen entropy --n 2 --window 3,0':
        ('7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d', 0,
         '9bfb0f44b0af90b1dcffae71a30bffaf59e8559f56abc436be760c046ae6cbdb', 0),
    'atomlen core --npartition "3,1;2,1" --charges 0,0 --n 3':
        ('1f3d86baf8eb1c157cff08f2b7ae85e3073810b24004e6c6517a24648dc34af8', 0,
         '05ff99a914f6d39a7420403359691c74614df24743dbafca7a7714482008c3bb', 0),
    'atomlen hall --mod 4 --d 3,0,2,3':
        ('51eef6d63b76475555548ca0eddd6fcff5230381ebad40a97649eb04f5167a02', 0,
         '7bcfb0503082b9ad7878d9b945289f3c7a2703732c09b88f7327f2b23c2178ba', 0),
    'atomlen scan --form Q-delta --n 5 --max-k 200 --radius 30':
        ('6215c5d093497dfb16db1bcbb5dae05f124a667a2689de082cc616bbe551378b', 0,
         'c33540a1f8fb44b44a7c7d9782fa48caca6471530576b6a1dd746f6a9a9bcefe', 0),
    'atomlen scan --form q-free  --n 4 --max-k 30  --radius 12':
        ('7491b78197af795af4d4cdaac1e312a477e6208c6bba3b7d0ecd6645d3c13f60', 0,
         '1cc838775a0684b7952d4c9731ffac8fd11e481263fdf4e7fdc0ef2e81ae3314', 0),
    'atomlen scan --form go      --n 4 --max-k 150 --radius 25':
        ('c29ff9ef30ee02f7544c27cd03358691aa39c98c51025eeb454f1c8f43173296', 0,
         '33e3c9fe8aef305b40fcf19aa9e0f39b80527857f3b7815f64e5622ed1abe8f7', 0),
    'atomlen scan --form trunc   --n 5 --ell 2 --max-k 100 --radius 30':
        ('41a1205062e0ae801de2d233e116f3eb8e63bed1792d869289f3a5f14cebf4bb', 0,
         '189c752322dc839b96a10f256e2b03c33b44b22191ff85a20682d9c6a2e5187b', 0),
    'atomlen scan --form Ps      --n 5 --ell 3 --s 2,2,4 --max-k 50 --radius 20':
        ('609b9a40853b4517d11e10a8b32d7d91e65c16acdc0ca13d927dbd4acbc8d7f3', 0,
         '7edf4f8272e2c620c6864ae9051fdbbdd3802d9857245855c767cb17853cf83f', 0),
    'atomlen scan --form refined-go --n 5 --max-k 150 --radius 25':
        ('d7dbdd850a479ae669e526dc93df3216f9e3da8cfa7716b979ddcd0e01384432', 0,
         '758d91a48beb08b960afcc82219ac5c7851687c16b587f0f1d2a39880fe16a48', 0),
    'atomlen scan --form deltaC  --n 5 --max-k 150 --radius 15':
        ('f0d3b2274babf5c1f6108cfc9bebf8076c3d1eec838d9df108d816497fb6d1a2', 0,
         'e002af2d74a4ca021fb6a4e6cd7c461dbdef2efb3f78ec7b0919660ac0d85600', 0),
    'atomlen scan --form lattice --type A2even --n 4 --max-k 100 --radius 25':
        ('6def075dae3a061d7884b255b76ad3ca359ce99861f371468e7df9208bcbbfa5', 0,
         '8e4cee1a29c9993fe81fe60006c7ee844fe59718e55d317eb234f852551aec18', 0),
    'atomlen sumset --family A --n 5':
        ('677e0313fe1f7a23a6a5d086dae185ab8311c7036c7ffda44750a8eaf756beb7', 0,
         '87a0e848709d40d203aa8307fa9cb2595182e14f804cbcb36ccfcd6780a9f599', 0),
    'atomlen sumset --family C --n 2 --mod 4     # exploratory override':
        ('b80a5550a5ec30b929708607794ffc26b1b4828340f04f41394d128ae4c3ae28', 0,
         'f12777d04b8c4a4485f6def355cd85b7aad6a4bd9518c95f8e0749b764bb22e6', 0),
    'atomlen finite --type B --n 4 --ell 2 --saturate':
        ('c641b9a1d58b6199651c30c8ef98c57170ae086171b057fed060a193013c988a', 0,
         'd32e9ab0419ccd8c5435ece191091a3823d7a54b295fbe3065659b1c081732dc', 0),
    'atomlen finite --type A --n 3 --ell 3 --bound':
        ('917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469', 0,
         'ba9122a194e5668a26aabe50c995fb836ed50f2e035cbe91f4277cb0e5c0def3', 0),
    'atomlen threshold --type C1':
        ('a27974fb6c31c92348f0091cdfec5e36fe544d2078a97f0e5dbea3144a28fb03', 0,
         '8aff19bf28eb9bd40c5d6c3c1b7d65215b2bfe3ef1d5619ffc4d6573d809f630', 0),
}


def _readme_commands():
    with open(README) as f:
        return [line.strip() for line in f if line.startswith("atomlen ")]


def test_pins_cover_the_readme_commands_in_order():
    assert _readme_commands() == list(PINNED)


@pytest.mark.parametrize("form", ["text", "json"])
def test_readme_commands_are_pinned(form, capsys):
    changed = []
    for command, pins in PINNED.items():
        argv = shlex.split(command, comments=True)[1:]
        code = cli.main(argv + (["--json"] if form == "json" else []))
        out = capsys.readouterr().out
        pin = pins[:2] if form == "text" else pins[2:]
        if (hashlib.sha256(out.encode()).hexdigest(), code) != pin:
            changed.append(command)
    assert not changed, f"README commands changed: {changed}"
